(* Check self-test: every output check accepts the program's real
   output and rejects it with one corruption applied, so that no check
   is vacuous.  Exits 1 when a check misses a corruption or rejects a
   real output.

     python3 perfbench/run.py --self-test *)

module Engine = Spv_engine.Engine
module Sweep = Spv_workload.Sweep
module Serve = Spv_workload.Serve
module GO = Spv_sizing.Global_opt
module T23 = Spv_experiments.Table2_3

let failures = ref 0

let accepts name r =
  match r with
  | Ok _ -> Printf.printf "ok   %s: accepted\n" name
  | Error m ->
      incr failures;
      Printf.printf "FAIL %s: real output rejected: %s\n" name m

let rejects name r =
  match r with
  | Error m -> Printf.printf "ok   %s: rejected (%s)\n" name m
  | Ok _ ->
      incr failures;
      Printf.printf "FAIL %s: corruption not detected\n" name

(* Replace the first occurrence of [sub] in [s]. *)
let replace_first s ~sub ~by =
  match Checks.find_after s sub with
  | None -> invalid_arg ("replace_first: " ^ sub)
  | Some j ->
      let i = j - String.length sub in
      String.sub s 0 i ^ by ^ String.sub s j (String.length s - j)

let with_row rows i f =
  let rows = Array.copy rows in
  rows.(i) <- f rows.(i);
  rows

let sweep () =
  let seed = Sweep_mc.default_seed in
  let grid = Checks.parse Sweep_mc.grid_text in
  let rows = (Sweep.run ~jobs:1 ~seed grid).Sweep.rows in
  let info = Sweep_mc.info_of_grid grid in
  accepts "sweep rows" (Checks.sweep_rows ~info rows);
  let find src proc m t =
    let i = ref (-1) in
    Array.iteri
      (fun k (r : Sweep.row) ->
        let s = r.Sweep.scenario in
        if s.Sweep.source = src && s.Sweep.process = proc && s.Sweep.method_ = m
           && s.Sweep.t_target = t
        then i := k)
      rows;
    !i
  in
  (* moves the yield and keeps yield + loss = 1, so that only the
     agreement checks can see it *)
  let shift i dv =
    with_row rows i (fun r ->
        let e = r.Sweep.estimate in
        let value = e.Engine.value +. dv in
        { r with Sweep.estimate = { e with Engine.value = value }; loss = 1.0 -. value })
  in
  (* adaptive off plain mc by 6 combined standard errors *)
  let i = find "moments1" "nominal" Engine.Adaptive_mc 115.0 in
  let m = find "moments1" "nominal" Engine.Mc 115.0 in
  let se = Checks.se rows.(i).Sweep.estimate +. Checks.se rows.(m).Sweep.estimate in
  rejects "sweep row: adaptive moved 6 combined se"
    (Checks.sweep_rows ~info (shift i (6.0 *. se)));
  (* plain mc off the exact independent yield on the rho=0 source *)
  let i = find "moments2" "nominal" Engine.Mc 115.0 in
  rejects "sweep row: mc moved off independent" (Checks.sweep_rows ~info (shift i 0.01));
  (* a Clark row beyond its 0.02 allowance *)
  let i = find "chain10" "vth60mv" Engine.Analytic_clark 125.0 in
  rejects "sweep row: clark moved 0.03" (Checks.sweep_rows ~info (shift i 0.03));
  (* a tail-side importance row off mc *)
  let i = find "chain10" "vth60mv" Engine.Importance 145.0 in
  rejects "sweep row: importance moved 0.02" (Checks.sweep_rows ~info (shift i (-0.02)));
  (* yield + loss <> 1 on a sampled row *)
  let i = find "chain10" "nominal" Engine.Mc 135.0 in
  rejects "sweep row: loss off 1 - yield"
    (Checks.sweep_rows ~info
       (with_row rows i (fun r -> { r with Sweep.loss = r.Sweep.loss +. 1e-9 })));
  (* one byte of the JSONL changed: jobs identity and the pinned digest *)
  let reference = Sweep_mc.reference ~seed in
  let jsonl = Sweep.to_jsonl (Sweep.run ~jobs:2 ~seed grid) in
  accepts "sweep jsonl" (Sweep_mc.verdict reference jsonl);
  rejects "sweep jsonl: one byte changed"
    (Sweep_mc.verdict reference (replace_first jsonl ~sub:"\"yield\":0.5" ~by:"\"yield\":0.6"))

let serve () =
  let seed = 7 and capacity = 32 in
  let d = Serve.create () in
  let text = Serve_mixed.grid_text "c432" "c1908" 45.0 in
  let line = Serve.request_line ~seed ~jobs:1 ~workers:1 ~request_id:"q1" ~grid:text () in
  let lines = Serve.handle_line d line in
  let res = Sweep.run ~jobs:1 ~seed (Checks.parse text) in
  let expected = (Digest.string (Sweep.to_jsonl res), Array.length res.Sweep.rows) in
  let check lines = Checks.served ~request_id:"q1" ~expected ~n_contexts:4 lines in
  accepts "served lines" (check lines);
  let nth_changed n f = List.mapi (fun i l -> if i = n then f l else l) lines in
  rejects "served line: one row value changed"
    (check (nth_changed 7 (fun l -> replace_first l ~sub:"\"yield\":" ~by:"\"yield\":1")));
  rejects "served line: one row dropped" (check (List.filter (fun l -> l != List.nth lines 3) lines));
  rejects "served line: done row count changed"
    (check
       (nth_changed (List.length lines - 1) (fun l ->
            replace_first l ~sub:"\"rows\":" ~by:"\"rows\":1")));
  let predicted = { Checks.hits = 0; misses = 4; evictions = 0 } in
  (match check lines with
  | Ok c ->
      accepts "served cache counters" (Checks.cache_counters ~request_id:"q1" ~capacity c ~predicted);
      rejects "served cache counters: one hit more"
        (Checks.cache_counters ~request_id:"q1" ~capacity
           { c with Checks.hits = c.Checks.hits + 1 } ~predicted)
  | Error _ -> ());
  let cut = String.sub line 0 (String.length line / 2) in
  accepts "truncated request" (Checks.truncated (Serve.handle_line d cut));
  rejects "truncated request: answered with rows" (Checks.truncated lines);
  rejects "truncated request: domain error instead"
    (Checks.truncated (Serve.handle_line d (replace_first line ~sub:"\"jobs\":1" ~by:"\"jobs\":0")))

(* The counter check on a real request sequence: the daemon agrees with
   the benchmark's LRU of capacity 32 and disagrees with one of 31. *)
let serve_sequence () =
  let o = Serve_mixed.make_oracle () and seed = 7 in
  let run (st : Serve_mixed.state) =
    List.fold_left
      (fun acc _ ->
        match acc with
        | Ok () -> (Serve_mixed.handle o ~seed st).Serve_mixed.verdict
        | e -> e)
      (Ok ()) (List.init 120 Fun.id)
  in
  accepts "served sequence: 120 requests" (run (Serve_mixed.create ~seed));
  rejects "served sequence: predicted by an LRU of capacity 31"
    (run { (Serve_mixed.create ~seed) with Serve_mixed.shadow = Serve_mixed.Lru.create 31 })

let sizing () =
  let t = T23.compute T23.Minimise_area in
  let report = Checks.sizing_report t in
  accepts "sizing" (Checks.sizing ~expected:report t);
  accepts "sizing pinned digest" (Size_iscas.verdict ~expected:report t);
  let with_proposed f = { t with T23.proposed = f t.T23.proposed } in
  rejects "sizing: yield below target"
    (Checks.sizing (with_proposed (fun p -> { p with GO.pipeline_yield = 0.79 })));
  rejects "sizing: area not below baseline"
    (Checks.sizing
       (with_proposed (fun p -> { p with GO.total_area = t.T23.baseline.GO.total_area })));
  let moved =
    with_proposed (fun p ->
        let a = Array.copy p.GO.stage_areas in
        a.(0) <- a.(0) *. (1.0 +. epsilon_float);
        { p with GO.stage_areas = a })
  in
  rejects "sizing: one stage area changed by an ulp" (Checks.sizing ~expected:report moved);
  rejects "sizing: pinned digest" (Size_iscas.verdict ~expected:(Checks.sizing_report moved) moved)

let () =
  Hooks.install ();
  sweep ();
  serve ();
  serve_sequence ();
  sizing ();
  if !failures > 0 then (
    Printf.printf "%d check(s) failed the self-test\n" !failures;
    exit 1)
  else print_endline "every check accepts the real outputs and rejects each corruption"
