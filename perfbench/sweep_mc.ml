(* sweep-mc: one op is grid text -> Grid.of_string -> Sweep.run ~jobs ->
   Sweep.to_jsonl over 96 scenarios and 4 contexts, about 1.05 M draws
   (the shared mc pass counts once per context).
   Nearly all the time is spent in estimator draw loops and in Par
   fan-out. *)

module Engine = Spv_engine.Engine
module Grid = Spv_workload.Grid
module Sweep = Spv_workload.Sweep
module M = Measure

let grid_text =
  String.concat "\n"
    [
      "rho 0.3";
      "stages "
      ^ String.concat " " (List.init 12 (fun i -> Printf.sprintf "%d,5" (100 + i)));
      "rho 0";
      "stages 100,6 98,5 102,7 97,4";
      "circuit chain10";
      "inter_vth_mv 60";
      "targets 115,125,135,145";
      "method mc,adaptive,importance,clark,independent,quadrature";
      "samples 50000";
      "shards 8";
      "";
    ]

(* MD5 of the JSONL at the default seed (42), any jobs. *)
let pinned_digest = "1af19b9b411c282125d5091185b5168b"
let default_seed = Engine.default_seed

(* ---- the poll schedule of Sweep.run --------------------------------- *)

(* Sweep.run polls [should_stop] once before each context build and
   once before each estimator call: one shared pass for [mc], one call
   per target for every other method.  Listing those events in
   expansion order maps the intervals between polls onto work. *)
type event =
  | Ctx
  | Est of { method_ : Engine.method_; rows : int }
      (** [rows] consecutive result rows come out of this call *)

let schedule (g : Grid.t) =
  let nt = Array.length g.Grid.targets in
  List.concat_map
    (fun source ->
      let nproc =
        match source with
        | Grid.Moments _ -> 1
        | Grid.Circuit _ -> List.length g.Grid.processes
      in
      List.concat
        (List.init nproc (fun _ ->
             Ctx
             :: List.concat_map
                  (fun m ->
                    match m with
                    | Engine.Mc -> [ Est { method_ = m; rows = nt } ]
                    | _ -> List.init nt (fun _ -> Est { method_ = m; rows = 1 }))
                  g.Grid.methods)))
    g.Grid.sources
  |> Array.of_list

(* Per-method totals over one op: seconds, draws and minor words spent
   between polls. *)
type split = {
  mutable mc : float * float;
  mutable adaptive : float * float;
  mutable importance : float * float;
  mutable closed_ms : float;
  mutable draws : float;
  mutable sampled_words : float;
}

(* [polls.(k)] is the time (and [words.(k)] the minor words) of the
   k-th poll, [t_end]/[w_end] those at the end of Sweep.run. *)
let attribute ~sched ~(rows : Sweep.row array) ~polls ~words ~t_end ~w_end =
  let s =
    {
      mc = (0.0, 0.0);
      adaptive = (0.0, 0.0);
      importance = (0.0, 0.0);
      closed_ms = 0.0;
      draws = 0.0;
      sampled_words = 0.0;
    }
  in
  let row = ref 0 in
  Array.iteri
    (fun k ev ->
      let t1 = if k + 1 < Array.length sched then polls.(k + 1) else t_end in
      let w1 = if k + 1 < Array.length sched then words.(k + 1) else w_end in
      let dt = t1 -. polls.(k) and dw = w1 -. words.(k) in
      match ev with
      | Ctx -> ()
      | Est { method_; rows = nr } ->
          let draws =
            match method_ with
            | Engine.Mc -> float_of_int rows.(!row).Sweep.estimate.Engine.n_samples
            | _ ->
                let d = ref 0 in
                for i = !row to !row + nr - 1 do
                  d := !d + rows.(i).Sweep.estimate.Engine.n_samples
                done;
                float_of_int !d
          in
          row := !row + nr;
          let add (t, d) = (t +. dt, d +. draws) in
          (match method_ with
          | Engine.Mc -> s.mc <- add s.mc
          | Engine.Adaptive_mc -> s.adaptive <- add s.adaptive
          | Engine.Importance -> s.importance <- add s.importance
          | Engine.Analytic_clark | Engine.Exact_independent | Engine.Quadrature
            ->
              s.closed_ms <- s.closed_ms +. (dt *. 1000.0));
          if Checks.sampled method_ then (
            s.draws <- s.draws +. draws;
            s.sampled_words <- s.sampled_words +. dw))
    sched;
  s

(* Sweep.run with a poll recorder; returns the result and the split. *)
let recorded_run ?ctx_provider ~jobs ~seed grid =
  let sched = schedule grid in
  let n = Array.length sched in
  let polls = Array.make n 0.0 and words = Array.make n 0.0 in
  let k = ref 0 in
  let should_stop () =
    if !k < n then (
      polls.(!k) <- M.now ();
      words.(!k) <- Gc.minor_words ());
    incr k;
    false
  in
  let res = Sweep.run ?ctx_provider ~jobs ~seed ~should_stop grid in
  let t_end = M.now () and w_end = Gc.minor_words () in
  if !k <> n then
    failwith (Printf.sprintf "Sweep.run polled %d times, schedule has %d" !k n);
  (res, attribute ~sched ~rows:res.Sweep.rows ~polls ~words ~t_end ~w_end)

(* ---- reference and checks ------------------------------------------- *)

let info_of_grid (g : Grid.t) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun source ->
      let procs =
        match source with
        | Grid.Moments _ -> [ Grid.nominal ]
        | Grid.Circuit _ -> g.Grid.processes
      in
      List.iter
        (fun (p : Grid.process) ->
          let ctx = Sweep.ctx_for ~tech:Checks.tech source p in
          let d = Engine.Ctx.delay_distribution ctx in
          let independent_exact =
            match source with
            | Grid.Moments { rho; _ } -> rho = 0.0
            | Grid.Circuit _ -> Engine.Ctx.n_stages ctx = 1
          in
          Hashtbl.replace tbl
            (Grid.source_label source, p.Grid.p_label)
            {
              Checks.mu = Spv_stats.Gaussian.mu d;
              sigma = Spv_stats.Gaussian.sigma d;
              independent_exact;
            })
        procs)
    g.Grid.sources;
  fun source process -> Hashtbl.find tbl (source, process)

(* The jobs=1 run every op is compared with, its agreement verdict and
   its allocation figures. *)
type reference = {
  digest : Digest.t;
  verdict : (unit, string) result;
  gc : M.gc;
  split : split;
}

let reference ~seed =
  let g0 = M.gc_now () in
  let grid = Checks.parse grid_text in
  let res, split = recorded_run ~jobs:1 ~seed grid in
  let jsonl = Sweep.to_jsonl res in
  let gc = M.gc_delta g0 (M.gc_now ()) in
  let digest = Digest.string jsonl in
  let verdict =
    Checks.first_error
      [
        (fun () -> Checks.sweep_rows ~info:(info_of_grid grid) res.Sweep.rows);
        (fun () ->
          if seed = default_seed && Digest.to_hex digest <> pinned_digest then
            Checks.fail "sweep-mc: JSONL digest %s differs from pinned %s"
              (Digest.to_hex digest) pinned_digest
          else Ok ());
      ]
  in
  { digest; verdict; gc; split }

let verdict (r : reference) jsonl =
  match r.verdict with
  | Error _ as e -> e
  | Ok () ->
      if Digest.string jsonl = r.digest then Ok ()
      else Checks.fail "sweep-mc: JSONL at jobs>1 differs from jobs=1"

(* ---- ops ------------------------------------------------------------ *)

let op ~jobs ~seed () =
  let grid = Checks.parse grid_text in
  Sweep.to_jsonl (Sweep.run ~jobs ~seed grid)

type traced = {
  wall : float;
  parse : float;
  lookup : float;
  lookups : int;
  ctx : float;
  builds : int;
  run : float;
  emit : float;
  bytes : int;
  sp : split;
}

let traced_op ~jobs ~seed () =
  let lookup_s = ref 0.0 and lookups = ref 0 in
  let lookup name =
    let r, dt = M.timed (fun () -> Grid.builtin_lookup name) in
    lookup_s := !lookup_s +. dt;
    incr lookups;
    r
  in
  let ctx_s = ref 0.0 and builds = ref 0 in
  let ctx_provider source process =
    let ctx, dt = M.timed (fun () -> Sweep.ctx_for ~tech:Checks.tech source process) in
    ctx_s := !ctx_s +. dt;
    incr builds;
    (ctx, (0, 0))
  in
  let t0 = M.now () in
  let grid, parse_s = M.timed (fun () -> Checks.parse ~lookup grid_text) in
  let (res, sp), run_s =
    M.timed (fun () -> recorded_run ~ctx_provider ~jobs ~seed grid)
  in
  let jsonl, emit_s = M.timed (fun () -> Sweep.to_jsonl res) in
  let wall = M.now () -. t0 in
  ( jsonl,
    {
      wall;
      parse = parse_s;
      lookup = !lookup_s;
      lookups = !lookups;
      ctx = !ctx_s;
      builds = !builds;
      run = run_s;
      emit = emit_s;
      bytes = String.length jsonl;
      sp;
    } )

let layers ~(reference : reference) (ts : traced array) =
  let m f = M.mean (Array.map f ts) in
  let ms f = 1000.0 *. m f in
  let rate f = m (fun t -> snd (f t.sp)) /. m (fun t -> fst (f t.sp)) in
  let engine t = t.run -. t.ctx in
  let covered t = t.parse +. t.ctx +. engine t +. t.emit in
  [
    ("grid.parse_ms", ms (fun t -> t.parse -. t.lookup));
    ("grid.lookup_ms", ms (fun t -> t.lookup));
    ("grid.lookups", m (fun t -> float_of_int t.lookups));
    ("ctx.builds", m (fun t -> float_of_int t.builds));
    ("ctx.build_ms", ms (fun t -> t.ctx));
    ("engine.ms", ms engine);
    ("engine.draws", m (fun t -> t.sp.draws));
    ("engine.mc.trials_per_s", rate (fun s -> s.mc));
    ("engine.adaptive.trials_per_s", rate (fun s -> s.adaptive));
    ("engine.importance.draws_per_s", rate (fun s -> s.importance));
    ("engine.closed_form_ms", m (fun t -> t.sp.closed_ms));
    ( "engine.minor_words_per_draw",
      reference.split.sampled_words /. reference.split.draws );
    ("emit.ms", ms (fun t -> t.emit));
    ("emit.bytes", m (fun t -> float_of_int t.bytes));
    ("trace.coverage", m covered /. m (fun t -> t.wall));
  ]
  @ M.gc_metrics [| reference.gc |]

let run (env : M.env) =
  let jobs = env.M.jobs and seed = env.M.seed in
  (* The reference runs first, outside set-up: it is check work. *)
  let reference = reference ~seed in
  let setups, peak_rss_mb, (untraced, traced, layers) =
    M.with_setups
      (fun () ->
        Hooks.install ();
        ignore (op ~jobs ~seed ()))
      (fun () ->
        let untraced =
          M.closed_loop ~prepare:M.fresh_heap ~seconds:(M.windows env) (fun _ ->
              let jsonl, dt = M.timed (op ~jobs ~seed) in
              { M.ms = dt *. 1000.0; verdict = verdict reference jsonl })
        in
        if not env.M.trace then (untraced, None, [])
        else
          let ts = ref [] in
          let loop =
            M.closed_loop ~prepare:M.fresh_heap ~seconds:(M.windows env) (fun _ ->
                let jsonl, t = traced_op ~jobs ~seed () in
                ts := t :: !ts;
                { M.ms = t.wall *. 1000.0; verdict = verdict reference jsonl })
          in
          (untraced, Some loop, layers ~reference (Array.of_list !ts)))
  in
  {
    M.setups;
    peak_rss_mb;
    untraced;
    traced;
    layers;
    notes =
      [
        Printf.sprintf
          "input: 96 scenarios over 4 contexts, samples 50000, shards 8, Sweep.run ~jobs:%d ~seed:%d"
          jobs seed;
        Printf.sprintf "jsonl md5 %s (jobs=1 reference; pinned at seed %d: %s)"
          (Digest.to_hex reference.digest) default_seed pinned_digest;
      ];
  }
