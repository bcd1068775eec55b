(* Output checks.  Each returns [Error msg] on the first violation.  The
   self-test (selftest.ml) feeds every check one corrupted output to
   show that none of them is vacuous. *)

module Engine = Spv_engine.Engine
module Grid = Spv_workload.Grid
module Sweep = Spv_workload.Sweep
module GO = Spv_sizing.Global_opt
module T23 = Spv_experiments.Table2_3

let tol = Spv_robust.Oracle.default_tolerances
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* The workloads' grids are fixed text, so a parse error is a bug. *)
let parse ?lookup text =
  match Grid.of_string ?lookup text with
  | Ok g -> g
  | Error e -> failwith ("grid: " ^ Grid.parse_error_to_string e)

(* The technology [Sweep.run] builds its contexts with. *)
let tech = Spv_process.Tech.bptm70

let first_error checks =
  List.fold_left (fun acc c -> match acc with Ok () -> c () | e -> e) (Ok ())
    checks

(* ---- sweep rows ----------------------------------------------------- *)

(* What the agreement checks need to know about one (source, process)
   context: its delay distribution, which splits targets into body and
   tail, and whether [independent] is exact there (independent stages
   or a single stage). *)
type ctx_info = { mu : float; sigma : float; independent_exact : bool }

(* Sampling-noise scale of an estimate.  A sampler whose every trial
   passed (or failed) reports se = 0; it is then allowed its resolution
   of one trial in n instead of nothing. *)
let se (e : Engine.estimate) =
  if e.Engine.std_error > 0.0 then e.Engine.std_error
  else if e.Engine.n_samples > 0 then 1.0 /. float_of_int e.Engine.n_samples
  else 0.0

let sampled = function
  | Engine.Mc | Engine.Adaptive_mc | Engine.Importance -> true
  | Engine.Analytic_clark | Engine.Exact_independent | Engine.Quadrature ->
      false

(* The [Spv_robust.Oracle] Agreement contract, row by row: every
   estimate against plain [mc] at the same (source, process, target),
   and, where [independent] is exact, against [independent] too.
   [importance] is held only on the tail side (t >= mu + 1.99 sigma),
   its documented domain.  [quadrature] is never a reference: on
   moments sources it degenerates to Clark by design. *)
let sweep_rows ~info (rows : Sweep.row array) =
  let key (r : Sweep.row) =
    (r.Sweep.scenario.Sweep.source, r.Sweep.scenario.Sweep.process,
     r.Sweep.scenario.Sweep.t_target)
  in
  let find k m =
    Array.find_opt
      (fun (r : Sweep.row) -> key r = k && r.Sweep.scenario.Sweep.method_ = m)
      rows
  in
  let check_row (r : Sweep.row) () =
    let s = r.Sweep.scenario in
    let e = r.Sweep.estimate in
    let v = e.Engine.value in
    let where =
      Printf.sprintf "row %d (%s/%s/%s t=%g)" s.Sweep.index s.Sweep.source
        s.Sweep.process
        (Engine.method_name s.Sweep.method_)
        s.Sweep.t_target
    in
    let ci = info s.Sweep.source s.Sweep.process in
    let within name (ref_ : Engine.estimate) allowance () =
      let d = Float.abs (v -. ref_.Engine.value) in
      if d <= allowance then Ok ()
      else
        fail "%s: %.6f vs %s %.6f differs by %.3g > allowed %.3g" where v name
          ref_.Engine.value d allowance
    in
    let vs_mc allowance =
      match find (key r) Engine.Mc with
      | None -> fail "%s: no mc row to compare with" where
      | Some m -> within "mc" m.Sweep.estimate (allowance m.Sweep.estimate) ()
    in
    let vs_independent allowance =
      if not ci.independent_exact then Ok ()
      else
        match find (key r) Engine.Exact_independent with
        | None -> fail "%s: no independent row to compare with" where
        | Some i ->
            within "independent" i.Sweep.estimate (allowance i.Sweep.estimate)
              ()
    in
    let z = tol.Spv_robust.Oracle.agree_z in
    let clark_abs = tol.Spv_robust.Oracle.clark_abs in
    let tail = s.Sweep.t_target >= ci.mu +. (1.99 *. ci.sigma) in
    first_error
      [
        (fun () ->
          if (not (sampled s.Sweep.method_))
             || Float.abs (v +. r.Sweep.loss -. 1.0) <= epsilon_float
          then Ok ()
          else fail "%s: yield %.17g + loss %.17g <> 1" where v r.Sweep.loss);
        (fun () ->
          match s.Sweep.method_ with
          | Engine.Mc -> vs_independent (fun _ -> z *. se e)
          | Engine.Adaptive_mc ->
              first_error
                [
                  (fun () -> vs_mc (fun m -> (z *. (se e +. se m)) +. 1e-9));
                  (fun () -> vs_independent (fun _ -> z *. se e));
                ]
          | Engine.Importance when tail ->
              first_error
                [
                  (fun () ->
                    vs_mc (fun m -> (z *. (se e +. se m)) +. (0.5 *. clark_abs)));
                  (fun () ->
                    vs_independent (fun _ -> (z *. se e) +. (0.5 *. clark_abs)));
                ]
          | Engine.Importance -> Ok ()
          | Engine.Analytic_clark | Engine.Quadrature ->
              first_error
                [
                  (fun () -> vs_mc (fun m -> clark_abs +. (z *. se m)));
                  (fun () -> vs_independent (fun _ -> clark_abs));
                ]
          | Engine.Exact_independent ->
              if ci.independent_exact then
                vs_mc (fun m -> (0.25 *. clark_abs) +. (z *. se m))
              else Ok ());
      ]
  in
  first_error (Array.to_list (Array.map check_row rows))

(* ---- served lines --------------------------------------------------- *)

(* The index just past the first [pat] in [s]. *)
let find_after s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (i + m)
    else go (i + 1)
  in
  go 0

let is_digit c = c = '-' || (c >= '0' && c <= '9')

(* The integer value of ["key":<int>] in a flat JSON line. *)
let int_field line key =
  match find_after line (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some start ->
      let stop = ref start in
      while !stop < String.length line && is_digit line.[!stop] do
        incr stop
      done;
      int_of_string_opt (String.sub line start (!stop - start))

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

type done_counts = { hits : int; misses : int; evictions : int }

(* A served response must be the one-shot rows, byte for byte, in
   order, each wrapped as a [row] line, then one [done] line whose
   counts match.  [expected] is the MD5 of the one-shot rows joined by
   newlines (as [Sweep.to_jsonl] prints them) and their count. *)
let served ~request_id ~expected:(digest, n_rows) ~n_contexts lines =
  let prefix =
    Printf.sprintf "{\"schema_version\":%d,\"kind\":\"row\",\"request_id\":\"%s\",\"row\":"
      Spv_workload.Serve.response_schema_version request_id
  in
  let rec split acc = function
    | [ last ] -> Some (List.rev acc, last)
    | x :: rest -> split (x :: acc) rest
    | [] -> None
  in
  match split [] lines with
  | None -> fail "%s: empty response" request_id
  | Some (row_lines, done_line) -> (
      let buf = Buffer.create (n_rows * 300) in
      let bad =
        List.find_opt
          (fun l ->
            if has_prefix ~prefix l && l.[String.length l - 1] = '}' then (
              let p = String.length prefix in
              Buffer.add_string buf (String.sub l p (String.length l - p - 1));
              Buffer.add_char buf '\n';
              false)
            else true)
          row_lines
      in
      match bad with
      | Some l -> fail "%s: not a row line: %s" request_id l
      | None ->
          let done_prefix =
            Printf.sprintf
              "{\"schema_version\":%d,\"kind\":\"done\",\"request_id\":\"%s\",\"status\":\"ok\",\"code\":0,"
              Spv_workload.Serve.response_schema_version request_id
          in
          if List.length row_lines <> n_rows then
            fail "%s: %d rows, one-shot sweep has %d" request_id
              (List.length row_lines) n_rows
          else if Digest.string (Buffer.contents buf) <> digest then
            fail "%s: served rows differ from the one-shot sweep rows"
              request_id
          else if not (has_prefix ~prefix:done_prefix done_line) then
            fail "%s: bad done line: %s" request_id done_line
          else if int_field done_line "rows" <> Some n_rows then
            fail "%s: done line counts %s rows, expected %d" request_id
              (Option.fold ~none:"no" ~some:string_of_int
                 (int_field done_line "rows"))
              n_rows
          else if int_field done_line "n_contexts" <> Some n_contexts then
            fail "%s: done line n_contexts differs from %d" request_id
              n_contexts
          else
            match
              ( int_field done_line "cache_hits",
                int_field done_line "cache_misses",
                int_field done_line "cache_evictions" )
            with
            | Some hits, Some misses, Some evictions ->
                Ok { hits; misses; evictions }
            | _ -> fail "%s: done line lacks cache counters" request_id)

(* The daemon's cache counters must be those of an LRU of the same
   capacity fed the same keys in the same order. *)
let cache_counters ~request_id ~capacity (c : done_counts) ~predicted =
  if c = predicted then Ok ()
  else
    fail "%s: cache counters %d/%d/%d, an LRU of capacity %d predicts %d/%d/%d"
      request_id c.hits c.misses c.evictions capacity predicted.hits
      predicted.misses predicted.evictions

(* A truncated request line must come back as exactly one
   [parse_error] line with code 3. *)
let truncated lines =
  match lines with
  | [ l ] ->
      if
        has_prefix
          ~prefix:
            (Printf.sprintf "{\"schema_version\":%d,\"kind\":\"error\","
               Spv_workload.Serve.response_schema_version)
          l
        && int_field l "code" = Some 3
        && find_after l "\"status\":\"parse_error\"" <> None
      then Ok ()
      else fail "truncated request: expected parse_error/3, got %s" l
  | _ ->
      fail "truncated request: expected one error line, got %d lines"
        (List.length lines)

(* ---- sizing --------------------------------------------------------- *)

(* Every number of the Table III result at full precision, so that two
   reports are equal only if the sizings are bit-identical. *)
let sizing_report (t : T23.table) =
  let b = Buffer.create 1024 in
  let f = Printf.bprintf in
  let arr name a =
    f b "%s" name;
    Array.iter (fun x -> f b " %.17g" x) a;
    f b "\n"
  in
  let result name (r : GO.result) =
    f b "%s total_area %.17g pipeline_yield %.17g\n" name r.GO.total_area
      r.GO.pipeline_yield;
    arr (name ^ " stage_targets") r.GO.stage_targets;
    arr (name ^ " stage_areas") r.GO.stage_areas;
    arr (name ^ " stage_yields") r.GO.stage_yields;
    f b "%s order %s\n" name
      (String.concat " " (Array.to_list (Array.map string_of_int r.GO.order)))
  in
  f b "t_target %.17g yield_target %.17g\n" t.T23.t_target t.T23.yield_target;
  result "baseline" t.T23.baseline;
  result "proposed" t.T23.proposed;
  f b "mc_yield baseline %.17g proposed %.17g\n" t.T23.mc_yield_baseline
    t.T23.mc_yield_proposed;
  Buffer.contents b

(* Table III's claim: the proposed sizing meets the yield target with
   less area than the conventional per-stage baseline, and the run is
   deterministic ([expected] is the first op's report). *)
let sizing ?expected (t : T23.table) =
  let report = sizing_report t in
  let p = t.T23.proposed and base = t.T23.baseline in
  if p.GO.pipeline_yield < t.T23.yield_target then
    fail "sizing: proposed pipeline yield %.6f below target %.2f"
      p.GO.pipeline_yield t.T23.yield_target
  else if not (p.GO.total_area < base.GO.total_area) then
    fail "sizing: proposed area %.6g not below baseline %.6g" p.GO.total_area
      base.GO.total_area
  else
    match expected with
    | Some r when r <> report -> fail "sizing: report differs from the first op's"
    | _ -> Ok ()
