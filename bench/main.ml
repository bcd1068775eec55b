(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section as labelled plain-text data, then runs Bechamel
   micro-benchmarks of the core analysis kernels.

   Usage:
     main.exe                 run everything
     main.exe fig2 table1     run selected experiments
     main.exe --no-perf       skip the Bechamel section
     main.exe --jobs N        widen the engine scaling sweep to N domains
                              (capped at the recommended domain count)
     main.exe --list          list experiment ids *)

module E = Spv_experiments
module Engine = Spv_engine.Engine

(* --- engine parallel-scaling study ----------------------------------- *)

(* Parallel throughput needs wall-clock time: Sys.time counts CPU
   seconds summed over domains, which stays flat (or grows) as workers
   are added even when elapsed time shrinks. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Number-or-null: every float that lands in a BENCH_*.json file goes
   through this one encoder (the JSONL twin is [Sweep.json_float]).
   [p] renders a finite value at the writer's precision; a NaN or
   infinite timing/ratio must become null, never a bare nan/inf token
   that would corrupt the file for every downstream parser. *)
let json_float p x = if Float.is_finite x then p x else "null"
let f1 = Printf.sprintf "%.1f"
let f2 = Printf.sprintf "%.2f"
let f3 = Printf.sprintf "%.3f"
let f4 = Printf.sprintf "%.4f"
let f6 = Printf.sprintf "%.6f"
let g3 = Printf.sprintf "%.3g"
let g6 = Printf.sprintf "%.6g"
let g17 = Printf.sprintf "%.17g"

let jobs_sweep = ref [| 1; 2; 4 |]

type scaling_row = { jobs : int; seconds : float; trials_per_sec : float }

type scaling_workload = {
  w_name : string;
  w_trials : int;
  w_words_per_trial : float;
  w_rows : scaling_row list;
}

(* More worker domains than the host has cores only measures
   oversubscription, so the sweep stops at the runtime's recommended
   domain count (jobs=1 always runs). *)
let engine_jobs () =
  let cap = Domain.recommended_domain_count () in
  List.partition (fun j -> j = 1 || j <= cap) (Array.to_list !jobs_sweep)

let engine_repeats = 5

let median xs =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Minor words per trial come from a jobs=1 run, where every shard runs
   on the calling domain and [Gc.minor_words] sees all of it.  Each
   timing is the median of [engine_repeats] wall-clock runs after one
   warm-up. *)
let scale_workload ~name ~trials run =
  run ~jobs:1 ~n:(min 512 trials);
  let w0 = Gc.minor_words () in
  run ~jobs:1 ~n:trials;
  let w_words_per_trial =
    (Gc.minor_words () -. w0) /. float_of_int trials
  in
  let w_rows =
    List.map
      (fun jobs ->
        let seconds =
          median
            (Array.init engine_repeats (fun _ ->
                 wall (fun () -> run ~jobs ~n:trials)))
        in
        { jobs; seconds; trials_per_sec = float_of_int trials /. seconds })
      (fst (engine_jobs ()))
  in
  { w_name = name; w_trials = trials; w_words_per_trial; w_rows }

let engine_workloads () =
  let tech = E.Common.base_tech in
  let ff = Spv_process.Flipflop.default tech in
  let moments_ctx =
    let stages =
      Array.init 12 (fun i ->
          Spv_core.Stage.of_moments ~mu:(100.0 +. float_of_int i) ~sigma:5.0 ())
    in
    Engine.Ctx.of_pipeline
      (Spv_core.Pipeline.make stages
         ~corr:(Spv_stats.Correlation.uniform ~n:12 ~rho:0.3))
  in
  let gate_ctx depths =
    Engine.Ctx.of_circuits ~ff tech
      (Spv_circuit.Generators.variable_depth_pipeline ~depths ())
  in
  let ctx_8x5 = gate_ctx (Array.make 8 5) in
  let ctx_5x8 = gate_ctx (Array.make 5 8) in
  [
    scale_workload ~name:"mc-moments-12stage" ~trials:100_000
      (fun ~jobs ~n ->
        ignore
          (Engine.yield ~method_:Engine.Mc ~jobs ~n moments_ctx
             ~t_target:115.0));
    scale_workload ~name:"importance-moments-12stage" ~trials:100_000
      (fun ~jobs ~n ->
        ignore
          (Engine.yield_loss ~method_:Engine.Importance ~jobs ~n moments_ctx
             ~t_target:135.0));
    scale_workload ~name:"gate-level-8x5" ~trials:4_000 (fun ~jobs ~n ->
        ignore (Engine.gate_level_delays ~jobs ctx_8x5 ~n));
    scale_workload ~name:"gate-level-5x8" ~trials:4_000 (fun ~jobs ~n ->
        ignore (Engine.gate_level_delays ~jobs ctx_5x8 ~n));
  ]

let write_engine_json path workloads =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"recommended_domains\": %d,\n"
    (Domain.recommended_domain_count ());
  Printf.bprintf b "  \"ocaml\": %S,\n" Sys.ocaml_version;
  Printf.bprintf b "  \"repeats\": %d,\n" engine_repeats;
  Printf.bprintf b "  \"jobs_dropped_above_cap\": [%s],\n"
    (String.concat ", " (List.map string_of_int (snd (engine_jobs ()))));
  Buffer.add_string b "  \"workloads\": [\n";
  List.iteri
    (fun i w ->
      let base = (List.hd w.w_rows).trials_per_sec in
      Printf.bprintf b
        "    {\"name\": %S, \"trials\": %d, \"minor_words_per_trial\": \
         %s, \"rows\": [\n"
        w.w_name w.w_trials
        (json_float f2 w.w_words_per_trial);
      List.iteri
        (fun j r ->
          Printf.bprintf b
            "      {\"jobs\": %d, \"seconds\": %s, \"trials_per_sec\": \
             %s, \"speedup_vs_jobs1\": %s}%s\n"
            r.jobs
            (json_float f6 r.seconds)
            (json_float f1 r.trials_per_sec)
            (json_float f3 (r.trials_per_sec /. base))
            (if j = List.length w.w_rows - 1 then "" else ","))
        w.w_rows;
      Printf.bprintf b "    ]}%s\n"
        (if i = List.length workloads - 1 then "" else ","))
    workloads;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let run_engine_scaling () =
  E.Common.section
    "Engine parallel scaling: deterministic shards over worker domains";
  Printf.printf "  runtime-recommended domain count: %d\n"
    (Domain.recommended_domain_count ());
  (match snd (engine_jobs ()) with
  | [] -> ()
  | dropped ->
      Printf.printf "  skipped jobs above the core count: %s\n"
        (String.concat ", " (List.map string_of_int dropped)));
  let ws = engine_workloads () in
  List.iter
    (fun w ->
      Printf.printf "  %s (%d trials, %.2f minor words/trial at jobs=1):\n"
        w.w_name w.w_trials w.w_words_per_trial;
      let base = (List.hd w.w_rows).trials_per_sec in
      List.iter
        (fun r ->
          Printf.printf
            "    jobs=%-2d %8.3f s %12.0f trials/s   speedup x%.2f\n" r.jobs
            r.seconds r.trials_per_sec
            (r.trials_per_sec /. base))
        w.w_rows)
    ws;
  write_engine_json "BENCH_engine.json" ws;
  Printf.printf "  wrote BENCH_engine.json\n"

(* --- static-pruning study -------------------------------------------- *)

(* A stage with one deep chain and many short side branches: the shape
   where the criticality pass can prove most gates never-critical.  At
   the analyzer's default k = 6 the lo corner of the factor box is
   vacuously small and nothing prunes (reported honestly below); k = 3
   tightens the box enough for the proof to go through. *)
let imbalanced_stage ~depth ~side =
  let b = Buffer.create 1024 in
  Buffer.add_string b "INPUT(a)\nINPUT(b)\n";
  Buffer.add_string b "n1 = INV(a)\n";
  for i = 2 to depth do
    Printf.bprintf b "n%d = INV(n%d)\n" i (i - 1)
  done;
  for s = 1 to side do
    Printf.bprintf b "s%d_1 = INV(b)\ns%d_2 = INV(s%d_1)\n" s s s
  done;
  Printf.bprintf b "OUTPUT(n%d)\n" depth;
  for s = 1 to side do
    Printf.bprintf b "OUTPUT(s%d_2)\n" s
  done;
  match Spv_circuit.Bench_format.of_string_result (Buffer.contents b) with
  | Ok net -> net
  | Error _ -> failwith "imbalanced_stage: bad generated bench"

let run_pruning_study () =
  E.Common.section
    "Static criticality pruning: pruned vs unpruned gate-level MC";
  let tech = E.Common.base_tech in
  let ff = Spv_process.Flipflop.default tech in
  let module Cr = Spv_analysis.Static_criticality in
  let nets = Array.init 4 (fun _ -> imbalanced_stage ~depth:40 ~side:40) in
  let ctx = Engine.Ctx.of_circuits ~ff tech nets in
  let k = 3.0 in
  let masks = Cr.masks_for_ctx ~k ctx in
  Array.iteri
    (fun i net ->
      let total = Spv_circuit.Netlist.n_gates net in
      let active =
        Array.fold_left
          (fun acc id -> if masks.(i).(id) then acc + 1 else acc)
          0
          (Spv_circuit.Netlist.gate_ids net)
      in
      Printf.printf
        "  stage %d: %d/%d gates possibly critical (%.0f%% prunable, k=%g)\n"
        i active total
        (100.0 *. float_of_int (total - active) /. float_of_int total)
        k)
    nets;
  let pctx = Engine.Ctx.with_prune ctx masks in
  let n = 20_000 in
  let full = ref [||] and pruned = ref [||] in
  let t_full = wall (fun () -> full := Engine.gate_level_delays ctx ~n) in
  let t_pruned =
    wall (fun () -> pruned := Engine.gate_level_delays pctx ~n)
  in
  let identical =
    Array.for_all2
      (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
      !full !pruned
  in
  Printf.printf
    "  %d trials: unpruned %.3f s, pruned %.3f s  -> speedup x%.2f \
     (bit-identical: %b)\n"
    n t_full t_pruned (t_full /. t_pruned) identical;
  (* The honest negative result: ISCAS-profile logic at the default
     k = 6 keeps every gate possibly-critical. *)
  let iscas_ctx =
    Engine.Ctx.of_circuits ~ff tech [| Spv_circuit.Generators.c432 () |]
  in
  let f = Cr.prunable_fraction (Cr.analyse tech (Engine.Ctx.netlist iscas_ctx 0)) in
  Printf.printf
    "  c432 at default k=6: prunable fraction %.3f (deep reconvergent \
     logic; the k-sigma box proves almost nothing never-critical)\n"
    f

(* --- affine-vs-interval tightness study ------------------------------ *)

module An = Spv_analysis.Affine_sta
module Iv = Spv_analysis.Interval

type affine_row = {
  a_name : string;
  a_stage_ratios : float array;  (* affine/interval width per stage *)
  a_delay_ratio : float;
  a_yield_ratio : float;
  a_t_target : float;
  a_escape : float;  (* analytic escape budget of the enclosures *)
  a_trials : int;
  a_model_escapes : int;  (* MC samples outside the delay enclosure *)
  a_gate_escapes : int;
}

let count_escapes enclosure samples =
  Array.fold_left
    (fun acc x -> if Iv.contains enclosure x then acc else acc + 1)
    0 samples

let affine_row ~k ~trials name ctx =
  let a = An.of_ctx ~k ctx in
  let d = Engine.Ctx.delay_distribution ctx in
  let t_target =
    d.Spv_stats.Gaussian.mu +. (2.0 *. d.Spv_stats.Gaussian.sigma)
  in
  let yield_affine = An.yield_bounds a ~t_target in
  let yield_frechet =
    Spv_analysis.Bounds.yield_bounds a.An.bounds ~t_target
  in
  let ratio tight wide =
    let wt = Iv.width tight and ww = Iv.width wide in
    if Float.is_finite wt && Float.is_finite ww && ww > 0.0 then wt /. ww
    else 1.0
  in
  let model_escapes =
    count_escapes a.An.delay (Engine.sample_delays ctx ~n:trials)
  in
  let gate_escapes =
    if Engine.Ctx.gate_level ctx then
      count_escapes a.An.delay
        (Engine.gate_level_delays ~exact:false ctx ~n:trials)
    else 0
  in
  {
    a_name = name;
    a_stage_ratios = Array.map (fun s -> s.An.width_ratio) a.An.stages;
    a_delay_ratio = a.An.delay_ratio;
    a_yield_ratio = ratio yield_affine yield_frechet;
    a_t_target = t_target;
    a_escape = a.An.escape;
    a_trials = trials;
    a_model_escapes = model_escapes;
    a_gate_escapes = gate_escapes;
  }

let affine_rows () =
  let tech = E.Common.base_tech in
  let ff = Spv_process.Flipflop.default tech in
  let gate name nets = (name, Engine.Ctx.of_circuits ~ff tech nets) in
  let k = 6.0 and trials = 10_000 in
  List.map
    (fun (name, ctx) -> affine_row ~k ~trials name ctx)
    [
      gate "chain10x4"
        (Spv_circuit.Generators.inverter_chain_pipeline ~stages:4 ~depth:10 ());
      gate "rca8+chain10"
        [|
          Spv_circuit.Generators.ripple_carry_adder ~bits:8;
          Spv_circuit.Generators.inverter_chain ~depth:10 ();
        |];
      gate "c432" [| Spv_circuit.Generators.c432 () |];
      ( "moments-12stage",
        Engine.Ctx.of_pipeline
          (Spv_core.Pipeline.make
             (Array.init 12 (fun i ->
                  Spv_core.Stage.of_moments ~mu:(100.0 +. float_of_int i)
                    ~sigma:5.0 ()))
             ~corr:(Spv_stats.Correlation.uniform ~n:12 ~rho:0.3)) );
    ]

let write_affine_json path rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"k\": 6.0,\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"name\": %S, \"median_stage_ratio\": %s, \"delay_ratio\": \
         %s, \"yield_ratio\": %s, \"t_target\": %s, \"escape\": %s, \
         \"trials\": %d, \"model_escapes\": %d, \"gate_escapes\": %d}%s\n"
        r.a_name
        (json_float f4 (median r.a_stage_ratios))
        (json_float f4 r.a_delay_ratio)
        (json_float f4 r.a_yield_ratio)
        (json_float f3 r.a_t_target)
        (json_float g3 r.a_escape)
        r.a_trials r.a_model_escapes r.a_gate_escapes
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let run_affine_study () =
  E.Common.section
    "Affine vs interval enclosures: width ratios and MC containment (k=6)";
  let rows = affine_rows () in
  List.iter
    (fun r ->
      Printf.printf
        "  %-16s stage ratio (median) %.3f  delay ratio %.3f  yield ratio \
         %.3f  escapes %d+%d/%d (budget %.2g)\n"
        r.a_name (median r.a_stage_ratios) r.a_delay_ratio r.a_yield_ratio
        r.a_model_escapes r.a_gate_escapes r.a_trials r.a_escape)
    rows;
  (match
     List.filter (fun r -> r.a_model_escapes + r.a_gate_escapes > 0) rows
   with
  | [] -> Printf.printf "  all sampled delays inside the affine enclosures\n"
  | bad ->
      List.iter
        (fun r -> Printf.printf "  WARNING: %s had MC escapes\n" r.a_name)
        bad);
  write_affine_json "BENCH_affine.json" rows;
  Printf.printf "  wrote BENCH_affine.json\n"

(* --- sweep shared-context caching study ------------------------------ *)

module Grid = Spv_workload.Grid
module Sweep = Spv_workload.Sweep

let sweep_tech = Spv_process.Tech.bptm70

let sweep_grid () =
  (* the CLI smoke grid with the MC draw count raised so per-scenario
     sampling is visible against the context-build cost *)
  { (Grid.smoke ()) with Grid.n = 20_000 }

(* The pre-`sweep` baseline: one engine call per scenario, each
   rebuilding its context (Cholesky factorisation, Clark recursion,
   SSTA) from scratch — exactly what scripting the single-scenario CLI
   in a loop costs. *)
let sweep_cold ~jobs (grid : Grid.t) =
  let seed = Engine.default_seed and n = grid.Grid.n in
  let shards = grid.Grid.shards in
  let rows = ref [] in
  List.iter
    (fun source ->
      let processes =
        match source with
        | Grid.Moments _ -> [ Grid.nominal ]
        | Grid.Circuit _ -> grid.Grid.processes
      in
      List.iter
        (fun process ->
          List.iter
            (fun method_ ->
              Array.iter
                (fun t_target ->
                  let ctx = Sweep.ctx_for ~tech:sweep_tech source process in
                  let e =
                    Engine.yield ~method_ ~jobs ~shards ~seed ~n ctx ~t_target
                  in
                  rows := e.Engine.value :: !rows)
                grid.Grid.targets)
            grid.Grid.methods)
        processes)
    grid.Grid.sources;
  Array.of_list (List.rev !rows)

type sweep_bench_row = {
  s_jobs : int;
  s_cold : float;
  s_cached : float;
  s_identical : bool;
}

let write_sweep_json path (grid : Grid.t) n_contexts rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Printf.bprintf b
    "  \"scenarios\": %d, \"contexts\": %d, \"mc_samples\": %d,\n"
    (Grid.n_scenarios grid) n_contexts grid.Grid.n;
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"jobs\": %d, \"cold_seconds\": %s, \"cached_seconds\": \
         %s, \"speedup\": %s, \"identical_results\": %b}%s\n"
        r.s_jobs
        (json_float f6 r.s_cold)
        (json_float f6 r.s_cached)
        (json_float f3 (r.s_cold /. r.s_cached))
        r.s_identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let run_sweep_study () =
  E.Common.section
    "Scenario sweep: shared-context caching vs per-scenario rebuilds";
  let grid = sweep_grid () in
  let n_scen = Grid.n_scenarios grid in
  let n_contexts = ref 0 in
  let rows =
    Array.to_list
      (Array.map
         (fun jobs ->
           let cold = ref [||] and cached = ref None in
           let s_cold = wall (fun () -> cold := sweep_cold ~jobs grid) in
           let s_cached =
             wall (fun () ->
                 cached := Some (Sweep.run ~jobs ~tech:sweep_tech grid))
           in
           let r = Option.get !cached in
           n_contexts := r.Sweep.n_contexts;
           (* the whole point of the cached path is that sharing never
              changes an answer: yields must match the per-scenario
              engine calls bit for bit *)
           let s_identical =
             Array.length !cold = Array.length r.Sweep.rows
             && Array.for_all2
                  (fun v (row : Sweep.row) ->
                    v = row.Sweep.estimate.Engine.value)
                  !cold r.Sweep.rows
           in
           { s_jobs = jobs; s_cold; s_cached; s_identical })
         !jobs_sweep)
  in
  Printf.printf "  %d scenarios share %d contexts (MC n = %d)\n" n_scen
    !n_contexts grid.Grid.n;
  List.iter
    (fun r ->
      Printf.printf
        "    jobs=%-2d cold %7.3f s   cached %7.3f s   speedup x%.2f   %s\n"
        r.s_jobs r.s_cold r.s_cached (r.s_cold /. r.s_cached)
        (if r.s_identical then "results identical"
         else "RESULTS DIFFER (bug!)"))
    rows;
  write_sweep_json "BENCH_sweep.json" grid !n_contexts rows;
  Printf.printf "  wrote BENCH_sweep.json\n"

(* --- hierarchical SSTA study ----------------------------------------- *)

module Macro = Spv_circuit.Macro
module Netlist = Spv_circuit.Netlist

(* A 64-stage pipeline instantiating one ~15.6k-gate block 64 times —
   1M gates total, the ROADMAP's north-star shape.  The scenario grid
   walks a sizing trajectory under process corners (the paper's design
   loop): every probe resizes one gate of the shared block, which
   invalidates all 64 flat stage analyses but exactly one band of the
   macro table.  Flat and hierarchical evaluation see the identical
   trajectory; each scenario's |flat - hier| gap is checked against
   the hierarchical estimate's own reported error bound. *)

let hier_stages = 64
let hier_gates_per_stage = 15_625
let hier_block_gates = 512
let hier_processes = 2
let hier_sizing_states = 50
let hier_targets_per_state = 10

type hier_result = {
  hb_flat_seconds : float;
  hb_hier_seconds : float;
  hb_scenarios : int;
  hb_n_blocks : int;
  hb_max_bound : float;
  hb_max_gap : float;
  hb_violations : int;
  hb_macro_hits : int;
  hb_macro_misses : int;
}

let run_hier_grid () =
  let net =
    Spv_circuit.Generators.random_logic ~name:"macroblock" ~inputs:32
      ~gates:hier_gates_per_stage ~depth:64 ~seed:1
  in
  let nets = Array.make hier_stages net in
  let gate_ids = Netlist.gate_ids net in
  let n_gates = Array.length gate_ids in
  let processes =
    [|
      sweep_tech;
      Spv_process.Tech.with_inter_vth sweep_tech ~sigma_mv:55.0;
    |]
  in
  let table = Macro.Table.create () in
  let flat_s = ref 0.0 and hier_s = ref 0.0 in
  let max_bound = ref 0.0 and max_gap = ref 0.0 in
  let violations = ref 0 and scenarios = ref 0 and n_blocks = ref 0 in
  let targets = ref [||] in
  Array.iter
    (fun tech ->
      for state = 0 to hier_sizing_states - 1 do
        (* state 0 keeps the current sizes; each later state resizes
           one deterministic gate of the shared block *)
        if state > 0 then begin
          let g = gate_ids.(state * 7919 mod n_gates) in
          let f = if state mod 2 = 0 then 1.25 else 0.8 in
          Netlist.set_size net g (Netlist.size net g *. f)
        end;
        let flat_ctx = ref None and hier_ctx = ref None in
        flat_s :=
          !flat_s +. wall (fun () -> flat_ctx := Some (Engine.Ctx.of_circuits tech nets));
        hier_s :=
          !hier_s
          +. wall (fun () ->
                 hier_ctx :=
                   Some
                     (Engine.Ctx.of_circuits ~mode:Engine.Hierarchical
                        ~macro_table:table ~block_gates:hier_block_gates tech
                        nets));
        let fc = Option.get !flat_ctx and hc = Option.get !hier_ctx in
        n_blocks := Engine.Ctx.n_blocks hc 0;
        if Array.length !targets = 0 then begin
          let d = Engine.Ctx.delay_distribution fc in
          let mu = d.Spv_stats.Gaussian.mu
          and sg = d.Spv_stats.Gaussian.sigma in
          targets :=
            Array.init hier_targets_per_state (fun i ->
                mu
                +. 3.0 *. sg
                   *. ((float_of_int i /. float_of_int (hier_targets_per_state - 1) *. 2.0)
                      -. 1.0))
        end;
        Array.iter
          (fun t_target ->
            incr scenarios;
            let fe = ref None and he = ref None in
            flat_s :=
              !flat_s
              +. wall (fun () ->
                     fe :=
                       Some
                         (Engine.yield ~method_:Engine.Analytic_clark fc
                            ~t_target));
            hier_s :=
              !hier_s
              +. wall (fun () ->
                     he :=
                       Some
                         (Engine.yield ~method_:Engine.Analytic_clark hc
                            ~t_target));
            let fe = Option.get !fe and he = Option.get !he in
            let bound =
              match he.Engine.hier_bound with
              | Some b -> b
              | None -> failwith "hier estimate lost its bound"
            in
            let gap = Float.abs (fe.Engine.value -. he.Engine.value) in
            if gap > bound +. 1e-9 then incr violations;
            if bound > !max_bound then max_bound := bound;
            if gap > !max_gap then max_gap := gap)
          !targets
      done)
    processes;
  {
    hb_flat_seconds = !flat_s;
    hb_hier_seconds = !hier_s;
    hb_scenarios = !scenarios;
    hb_n_blocks = !n_blocks;
    hb_max_bound = !max_bound;
    hb_max_gap = !max_gap;
    hb_violations = !violations;
    hb_macro_hits = Macro.Table.hits table;
    hb_macro_misses = Macro.Table.misses table;
  }

let write_hier_json path r =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"stages\": %d,\n" hier_stages;
  Printf.bprintf b "  \"gates_per_stage\": %d,\n" hier_gates_per_stage;
  Printf.bprintf b "  \"total_gates\": %d,\n"
    (hier_stages * hier_gates_per_stage);
  Printf.bprintf b "  \"blocks_per_stage\": %d,\n" r.hb_n_blocks;
  Printf.bprintf b "  \"scenarios\": %d,\n" r.hb_scenarios;
  Printf.bprintf b
    "  \"grid\": {\"processes\": %d, \"sizing_states\": %d, \"targets\": %d},\n"
    hier_processes hier_sizing_states hier_targets_per_state;
  Printf.bprintf b "  \"flat_seconds\": %s,\n" (json_float f6 r.hb_flat_seconds);
  Printf.bprintf b "  \"hier_seconds\": %s,\n" (json_float f6 r.hb_hier_seconds);
  Printf.bprintf b "  \"speedup\": %s,\n"
    (json_float f3 (r.hb_flat_seconds /. r.hb_hier_seconds));
  Printf.bprintf b "  \"max_hier_bound\": %s,\n" (json_float g17 r.hb_max_bound);
  Printf.bprintf b "  \"max_flat_hier_gap\": %s,\n" (json_float g17 r.hb_max_gap);
  Printf.bprintf b "  \"bound_violations\": %d,\n" r.hb_violations;
  Printf.bprintf b "  \"macro_hits\": %d,\n" r.hb_macro_hits;
  Printf.bprintf b "  \"macro_misses\": %d\n" r.hb_macro_misses;
  Buffer.add_string b "}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let run_hier_study () =
  E.Common.section
    "Hierarchical SSTA: macro-memoised vs flat on a 1M-gate pipeline";
  Printf.printf "  %d stages x %d gates = %d gates, %d scenarios\n"
    hier_stages hier_gates_per_stage
    (hier_stages * hier_gates_per_stage)
    (hier_processes * hier_sizing_states * hier_targets_per_state);
  let r = run_hier_grid () in
  Printf.printf
    "  flat %.2f s, hierarchical %.2f s  -> speedup x%.1f (%d blocks/stage)\n"
    r.hb_flat_seconds r.hb_hier_seconds
    (r.hb_flat_seconds /. r.hb_hier_seconds)
    r.hb_n_blocks;
  Printf.printf
    "  max |flat-hier| gap %.3g within max bound %.3g; %d violation(s)\n"
    r.hb_max_gap r.hb_max_bound r.hb_violations;
  Printf.printf "  macro cache: %d hit(s), %d miss(es)\n" r.hb_macro_hits
    r.hb_macro_misses;
  write_hier_json "BENCH_hier.json" r;
  Printf.printf "  wrote BENCH_hier.json\n"

(* --- fuzz campaign throughput ---------------------------------------- *)

module Fuzz_run = Spv_robust.Fuzz_run

let write_fuzz_json path ~trials ~seconds (s : Fuzz_run.summary) =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"trials\": %d,\n" trials;
  Printf.bprintf b "  \"checks_run\": %d,\n" s.Fuzz_run.checks_run;
  Printf.bprintf b "  \"violations\": %d,\n" s.Fuzz_run.violations;
  Printf.bprintf b "  \"seconds\": %s,\n" (json_float f6 seconds);
  Printf.bprintf b "  \"trials_per_sec\": %s,\n"
    (json_float f3 (float_of_int trials /. seconds));
  Printf.bprintf b "  \"checks_per_sec\": %s\n"
    (json_float f1 (float_of_int s.Fuzz_run.checks_run /. seconds));
  Buffer.add_string b "}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let run_fuzz_study () =
  E.Common.section "Fuzz campaign: oracle throughput (trials/sec)";
  let trials = 100 in
  let cfg = { Fuzz_run.default_config with Fuzz_run.trials } in
  (* warm-up so allocator/code paths are hot before timing *)
  ignore (Fuzz_run.run { cfg with Fuzz_run.trials = 8 });
  let summary = ref None in
  let seconds = wall (fun () -> summary := Some (Fuzz_run.run cfg)) in
  let s = Option.get !summary in
  Printf.printf
    "  %d trials, %d oracle checks, %d violation(s) in %.3f s (%.1f \
     trials/s, %.0f checks/s)\n"
    trials s.Fuzz_run.checks_run s.Fuzz_run.violations seconds
    (float_of_int trials /. seconds)
    (float_of_int s.Fuzz_run.checks_run /. seconds);
  write_fuzz_json "BENCH_fuzz.json" ~trials ~seconds s;
  Printf.printf "  wrote BENCH_fuzz.json\n"

(* --- deep-tail importance sampling: cone-guided vs legacy ------------ *)

(* 64-stage moments pipeline with one dominant stage: stage 0
   (mu 100, sigma 5) owns the deep tail while the 63 background stages
   sit 4 sigma lower, so the loss at t = mu_0 + z sigma_0 is
   upper_tail(z) to within a relative whisker and z doubles as the
   whitened crossing depth of the dominant failure mode.  Independence
   keeps the exact loss available in closed form at any depth.

   The legacy mixture caps crossing depth at 6 marginal sigmas and
   floors mode weights at 1e-12: past z ~ 6 the capped shift lands
   short of the barrier, and past z ~ 7 the dominant stage's own
   exceedance underflows the floor, collapsing the mixture to uniform
   over all 64 stages (63 of them useless).  The cone-guided proposal
   shifts to the uncapped design point with criticality-weighted modes
   and is immune to both, which is where the deep-tail ESS gain comes
   from. *)

let tail_sigma = 5.0
let tail_mus = Array.init 64 (fun i -> if i = 0 then 100.0 else 80.0)
let tail_zs = [| 4.0; 5.0; 6.0; 7.0; 7.5; 8.0 |]
let tail_n = 120_000

let tail_ctx () =
  let stages =
    Array.map
      (fun mu -> Spv_core.Stage.of_moments ~mu ~sigma:tail_sigma ())
      tail_mus
  in
  Engine.Ctx.of_pipeline
    (Spv_core.Pipeline.make stages
       ~corr:(Spv_stats.Correlation.independent ~n:(Array.length tail_mus)))

(* Exact P{max_j X_j > t} for the independent fixture; the survival
   product is accumulated in log space so 1e-16-scale tails survive. *)
let tail_closed_loss t =
  let log_pass =
    Array.fold_left
      (fun acc mu ->
        acc
        +. Float.log1p
             (-.Spv_stats.Special.upper_tail ((t -. mu) /. tail_sigma)))
      0.0 tail_mus
  in
  -.Float.expm1 log_pass

type tail_est = {
  te_loss : float;
  te_se : float;
  te_ess : float;
  te_used : string;
  te_covers : bool;  (** closed-form loss within value +- 3 se *)
}

type tail_row = {
  tr_z : float;
  tr_t : float;
  tr_closed : float;
  tr_legacy : tail_est;
  tr_cone : tail_est;
  tr_gain : float;  (** cone ESS / legacy ESS (legacy floored at 1) *)
}

let tail_est ~closed (e : Engine.estimate) =
  {
    te_loss = e.Engine.value;
    te_se = e.Engine.std_error;
    te_ess = (match e.Engine.ess with Some s -> s | None -> 0.0);
    te_used =
      (match e.Engine.proposal with
      | Some p -> Engine.proposal_used_name p
      | None -> "-");
    te_covers =
      Float.abs (e.Engine.value -. closed) <= (3.0 *. e.Engine.std_error) +. 1e-18;
  }

let run_tail_row ctx z =
  let t = tail_mus.(0) +. (z *. tail_sigma) in
  let closed = tail_closed_loss t in
  let run proposal =
    tail_est ~closed
      (Engine.yield_loss ~method_:Engine.Importance ~proposal ~n:tail_n
         ~seed:Engine.default_seed ctx ~t_target:t)
  in
  let legacy = run Engine.Legacy in
  let cone = run Engine.Cone_guided in
  {
    tr_z = z;
    tr_t = t;
    tr_closed = closed;
    tr_legacy = legacy;
    tr_cone = cone;
    tr_gain = cone.te_ess /. Float.max legacy.te_ess 1.0;
  }

(* Single-stage fixture: the pipeline max is exactly Gaussian, so the
   cone-guided 6-sigma loss must agree with Special.upper_tail 6. *)
let run_tail_closed_form () =
  let ctx =
    Engine.Ctx.of_pipeline
      (Spv_core.Pipeline.make
         [| Spv_core.Stage.of_moments ~mu:100.0 ~sigma:tail_sigma () |]
         ~corr:(Spv_stats.Correlation.independent ~n:1))
  in
  let e =
    Engine.yield_loss ~method_:Engine.Importance ~proposal:Engine.Cone_guided
      ~n:tail_n ~seed:Engine.default_seed ctx
      ~t_target:(100.0 +. (6.0 *. tail_sigma))
  in
  let exact = Spv_stats.Special.upper_tail 6.0 in
  let agrees =
    Float.abs (e.Engine.value -. exact) <= (3.0 *. e.Engine.std_error) +. 1e-18
  in
  (e, exact, agrees)

let write_tail_json path rows ~closed_est ~closed_exact ~closed_agrees =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"stages\": %d,\n" (Array.length tail_mus);
  Printf.bprintf b "  \"dominant\": {\"mu\": %s, \"sigma\": %s},\n"
    (json_float f1 tail_mus.(0))
    (json_float f1 tail_sigma);
  Printf.bprintf b
    "  \"background\": {\"mu\": %s, \"sigma\": %s, \"count\": %d},\n"
    (json_float f1 tail_mus.(1))
    (json_float f1 tail_sigma)
    (Array.length tail_mus - 1);
  Printf.bprintf b "  \"n_per_run\": %d,\n" tail_n;
  Buffer.add_string b "  \"rows\": [\n";
  let emit_est b e =
    Printf.bprintf b
      "{\"loss\": %s, \"se\": %s, \"ess\": %s, \"proposal\": %S, \
       \"ci_covers_closed_form\": %b}"
      (json_float g6 e.te_loss)
      (json_float g6 e.te_se)
      (json_float f1 e.te_ess)
      e.te_used e.te_covers
  in
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"z\": %s, \"t\": %s, \"loss_closed\": %s,\n\
        \     \"legacy\": "
        (json_float f2 r.tr_z)
        (json_float f2 r.tr_t)
        (json_float g6 r.tr_closed);
      emit_est b r.tr_legacy;
      Buffer.add_string b ",\n     \"cone\": ";
      emit_est b r.tr_cone;
      Printf.bprintf b ",\n     \"ess_gain\": %s}%s\n"
        (json_float f1 r.tr_gain)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ],\n";
  let gain_max =
    List.fold_left (fun acc r -> Float.max acc r.tr_gain) 0.0 rows
  in
  Printf.bprintf b "  \"ess_gain_max\": %s,\n" (json_float f1 gain_max);
  Printf.bprintf b "  \"deep_gain_at_least_100x\": %b,\n" (gain_max >= 100.0);
  Printf.bprintf b
    "  \"closed_form_6sigma\": {\"exact\": %s, \"estimate\": %s, \"se\": \
     %s, \"agrees_within_3se\": %b},\n"
    (json_float g6 closed_exact)
    (json_float g6 closed_est.Engine.value)
    (json_float g6 closed_est.Engine.std_error)
    closed_agrees;
  Printf.bprintf b
    "  \"note\": \"legacy mixture caps crossing depth at 6 sigma and floors \
     mode weights at 1e-12; past ~6 sigma the capped shift strands short of \
     the barrier and past ~7 sigma the weight floor collapses the mixture to \
     uniform over all stages, which is where the cone-guided ESS gain \
     comes from\"\n";
  Buffer.add_string b "}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let run_tail_study () =
  E.Common.section
    "Deep-tail importance sampling: cone-guided vs legacy mixture ESS";
  Spv_analysis.Cones.install_engine_proposal ();
  let ctx = tail_ctx () in
  Printf.printf
    "  %d stages (dominant mu %.0f sigma %.0f), %d draws per estimator\n"
    (Array.length tail_mus) tail_mus.(0) tail_sigma tail_n;
  let rows = Array.to_list (Array.map (run_tail_row ctx) tail_zs) in
  List.iter
    (fun r ->
      Printf.printf
        "  z=%.1f  loss %.3g  legacy ess %8.1f (%s)  cone ess %8.1f (%s)  \
         gain x%.1f\n"
        r.tr_z r.tr_closed r.tr_legacy.te_ess r.tr_legacy.te_used
        r.tr_cone.te_ess r.tr_cone.te_used r.tr_gain)
    rows;
  let gain_max =
    List.fold_left (fun acc r -> Float.max acc r.tr_gain) 0.0 rows
  in
  if gain_max < 100.0 then
    Printf.printf
      "  WARNING: max ESS gain x%.1f below the expected 100x deep-tail gain\n"
      gain_max;
  let closed_est, closed_exact, closed_agrees = run_tail_closed_form () in
  Printf.printf
    "  closed-form 6-sigma: exact %.4g, cone-guided %.4g +- %.2g -> %s\n"
    closed_exact closed_est.Engine.value closed_est.Engine.std_error
    (if closed_agrees then "agrees within 3 se" else "DISAGREES");
  write_tail_json "BENCH_tail.json" rows ~closed_est ~closed_exact
    ~closed_agrees;
  Printf.printf "  wrote BENCH_tail.json\n"

(* --- certified sensitivity pruning in the sizers --------------------- *)

(* Sizer work with dominance pruning off vs on, at 4 and 64 stages.
   Pruning is required to be result-transparent, so the study asserts
   byte-identical reports alongside the saved-work counters.  Two
   integrations are measured: the greedy per-stage sizer (candidate
   moves pruned by certified stat-delay sensitivity) and the global
   Lagrangian-based yield optimiser (stage probes skipped by a
   certified yield upper bound over the sizing box). *)

module Sens_hook = Spv_sizing.Sens_hook
module Greedy = Spv_sizing.Greedy
module Lagr = Spv_sizing.Lagrangian
module Global_opt = Spv_sizing.Global_opt
module Gen = Spv_circuit.Generators
module Netl = Spv_circuit.Netlist

type sens_side = {
  sb_seconds : float;
  sb_evaluated : int;  (** greedy trial evaluations / global probes run *)
  sb_skipped : int;  (** moves pruned / probes skipped *)
}

type sens_row = {
  sr_stages : int;
  sr_greedy_off : sens_side;
  sr_greedy_on : sens_side;
  sr_greedy_identical : bool;
  sr_global_off : sens_side;
  sr_global_on : sens_side;
  sr_global_identical : bool;
}

(* Deliberately unbalanced depths (2..10): the deep chains are the
   yield bottleneck while the shortest ones saturate their stage CDF
   at the pipeline target — the probes the certified skip proves
   away. *)
let sens_nets n_stages =
  Array.init n_stages (fun i ->
      Gen.inverter_chain
        ~name:(Printf.sprintf "chain%d" i)
        ~depth:(2 + (2 * (i mod 5)))
        ())

let sens_z = Spv_stats.Special.big_phi_inv 0.9457

let run_sens_config n_stages =
  let tech = E.Common.base_tech in
  let ff = Spv_process.Flipflop.default tech in
  let nets = sens_nets n_stages in
  let targets =
    Array.map
      (fun net ->
        let slow = Lagr.relaxed_delay ~ff tech net ~z:sens_z in
        let fast = Lagr.minimum_achievable_delay ~ff tech net ~z:sens_z in
        fast +. (0.5 *. (slow -. fast)))
      nets
  in
  let greedy_run enabled =
    Sens_hook.set_enabled enabled;
    Sens_hook.reset_stats ();
    let reports = ref [] in
    let seconds =
      wall (fun () ->
          Array.iteri
            (fun i net ->
              let r =
                Greedy.size_stage ~ff tech (Netl.copy net)
                  ~t_target:targets.(i) ~z:sens_z
              in
              reports := r :: !reports)
            nets)
    in
    ( {
        sb_seconds = seconds;
        sb_evaluated = Sens_hook.stats.Sens_hook.moves_evaluated;
        sb_skipped = Sens_hook.stats.Sens_hook.moves_pruned;
      },
      List.rev !reports )
  in
  (* Pitch the pipeline target just below the bottleneck stage's
     minimum achievable stat delay at the per-stage yield budget: the
     bottleneck then misses its budget, the baseline pipeline yield
     starts below target, and ensure_yield has tightening probes to
     run on the stages with headroom — including saturated fast
     stages whose probes the certified skip can prove away. *)
  let z_budget =
    Spv_stats.Special.big_phi_inv
      (Spv_core.Yield.per_stage_yield_target ~yield:0.8 ~n_stages)
  in
  let t_target =
    0.9
    *. Array.fold_left
         (fun acc net ->
           Float.max acc
             (Lagr.minimum_achievable_delay ~ff tech net ~z:z_budget))
         0.0 nets
  in
  let global_run enabled =
    Sens_hook.set_enabled enabled;
    Sens_hook.reset_stats ();
    let result = ref None in
    let seconds =
      wall (fun () ->
          result :=
            Some
              (Global_opt.ensure_yield ~ff ~max_rounds:200 tech
                 (Array.map Netl.copy nets)
                 ~t_target ~yield_target:0.8))
    in
    ( {
        sb_seconds = seconds;
        sb_evaluated = Sens_hook.stats.Sens_hook.probes_run;
        sb_skipped = Sens_hook.stats.Sens_hook.probes_skipped;
      },
      Option.get !result )
  in
  let greedy_off, reports_off = greedy_run false in
  let greedy_on, reports_on = greedy_run true in
  let global_off, res_off = global_run false in
  let global_on, res_on = global_run true in
  Sens_hook.set_enabled true;
  {
    sr_stages = n_stages;
    sr_greedy_off = greedy_off;
    sr_greedy_on = greedy_on;
    sr_greedy_identical = reports_off = reports_on;
    sr_global_off = global_off;
    sr_global_on = global_on;
    sr_global_identical =
      res_off.Global_opt.stage_targets = res_on.Global_opt.stage_targets
      && res_off.Global_opt.stage_areas = res_on.Global_opt.stage_areas
      && res_off.Global_opt.pipeline_yield = res_on.Global_opt.pipeline_yield;
  }

let write_sens_json path rows =
  let b = Buffer.create 512 in
  let side b s =
    Printf.bprintf b
      "{\"seconds\": %s, \"evaluated\": %d, \"skipped\": %d}"
      (json_float f6 s.sb_seconds)
      s.sb_evaluated s.sb_skipped
  in
  Buffer.add_string b "{\n  \"configs\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf b "    {\"stages\": %d,\n" r.sr_stages;
      Printf.bprintf b "     \"greedy\": {\"pruning_off\": ";
      side b r.sr_greedy_off;
      Printf.bprintf b ", \"pruning_on\": ";
      side b r.sr_greedy_on;
      Printf.bprintf b ", \"reports_identical\": %b},\n"
        r.sr_greedy_identical;
      Printf.bprintf b "     \"global\": {\"pruning_off\": ";
      side b r.sr_global_off;
      Printf.bprintf b ", \"pruning_on\": ";
      side b r.sr_global_on;
      Printf.bprintf b ", \"results_identical\": %b}}%s\n"
        r.sr_global_identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let run_sens_study () =
  E.Common.section
    "Certified sensitivity pruning: sizer work with dominance pruning off \
     vs on";
  Spv_analysis.Dominance.install_sizing_prune ();
  let rows = List.map run_sens_config [ 4; 64 ] in
  List.iter
    (fun r ->
      Printf.printf
        "  %2d stages  greedy: %d eval / %d pruned (%.3f s -> %.3f s) %s\n"
        r.sr_stages r.sr_greedy_on.sb_evaluated r.sr_greedy_on.sb_skipped
        r.sr_greedy_off.sb_seconds r.sr_greedy_on.sb_seconds
        (if r.sr_greedy_identical then "identical"
         else "REPORTS DIVERGED");
      Printf.printf
        "             global: %d probes / %d skipped (%.3f s -> %.3f s) %s\n"
        r.sr_global_on.sb_evaluated r.sr_global_on.sb_skipped
        r.sr_global_off.sb_seconds r.sr_global_on.sb_seconds
        (if r.sr_global_identical then "identical"
         else "RESULTS DIVERGED"))
    rows;
  write_sens_json "BENCH_sens.json" rows;
  Printf.printf "  wrote BENCH_sens.json\n"

(* --- serve daemon study ---------------------------------------------- *)

module Serve = Spv_workload.Serve

(* Context-heavy, evaluation-light: two real circuits under a process
   override with the closed-form estimator only, so the (source,
   process) context builds (SSTA + Cholesky) dominate a cold request
   and the LRU cache is what a warm request measures. *)
let serve_grid_text =
  "circuit c3540\n\
   circuit c1908\n\
   inter_vth_mv 60\n\
   targets 300:400:5\n\
   method clark\n\
   samples 1000\n\
   shards 4\n"

let serve_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let write_serve_json path ~rows ~contexts ~cold ~warm ~workers_rows
    ~throughput_requests ~throughput_seconds ~identical cache_stats =
  let hits, misses, evictions = cache_stats in
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"rows_per_request\": %d, \"contexts\": %d,\n" rows
    contexts;
  Printf.bprintf b "  \"cold_seconds\": %s,\n" (json_float f6 cold);
  Printf.bprintf b "  \"warm_seconds\": %s,\n" (json_float f6 warm);
  Printf.bprintf b "  \"warm_speedup\": %s,\n" (json_float f3 (cold /. warm));
  Printf.bprintf b "  \"rows_identical_cold_warm\": %b,\n" identical;
  Buffer.add_string b "  \"workers\": [\n";
  List.iteri
    (fun i (w, s) ->
      Printf.bprintf b "    {\"workers\": %d, \"warm_seconds\": %s}%s\n" w
        (json_float f6 s)
        (if i = List.length workers_rows - 1 then "" else ","))
    workers_rows;
  Buffer.add_string b "  ],\n";
  Printf.bprintf b
    "  \"throughput\": {\"requests\": %d, \"seconds\": %s, \
     \"requests_per_sec\": %s},\n"
    throughput_requests
    (json_float f6 throughput_seconds)
    (json_float f1 (float_of_int throughput_requests /. throughput_seconds));
  Printf.bprintf b
    "  \"cache\": {\"hits\": %d, \"misses\": %d, \"evictions\": %d}\n" hits
    misses evictions;
  Buffer.add_string b "}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let run_serve_study () =
  E.Common.section
    "Serve daemon: cold vs warm context cache, request throughput";
  let request ?workers id =
    Serve.request_line ?workers ~request_id:id ~seed:7 ~grid:serve_grid_text ()
  in
  let rows_of out =
    List.filter (fun l -> serve_contains l "\"kind\":\"row\"") out
  in
  let min_of times = List.fold_left min infinity times in
  let reps = 5 in
  (* Cold: fresh daemon per repetition so every (source, process)
     context is rebuilt.  Warm: one primed daemon, every context an LRU
     hit.  Same request_id on both so the row lines (which embed it)
     can be compared byte-for-byte; only the cache temperature differs. *)
  let cold_out = ref [] in
  let cold =
    min_of
      (List.init reps (fun _ ->
           let fresh = Serve.create () in
           wall (fun () -> cold_out := Serve.handle_line fresh (request "r"))))
  in
  let d = Serve.create () in
  ignore (Serve.handle_line d (request "r"));
  let warm_out = ref [] in
  let warm =
    min_of
      (List.init reps (fun _ ->
           wall (fun () -> warm_out := Serve.handle_line d (request "r"))))
  in
  let identical = rows_of !cold_out = rows_of !warm_out in
  let workers_rows =
    List.map
      (fun w ->
        let s =
          wall (fun () ->
              ignore (Serve.handle_line d (request ~workers:w "wk")))
        in
        (w, s))
      [ 1; 2; 4 ]
  in
  let throughput_requests = 16 in
  let throughput_seconds =
    wall (fun () ->
        for i = 1 to throughput_requests do
          ignore (Serve.handle_line d (request (Printf.sprintf "t%d" i)))
        done)
  in
  let rows = List.length (rows_of !cold_out) in
  let c = Serve.cache d in
  let contexts = Serve.Cache.length c in
  let cache_stats =
    (Serve.Cache.hits c, Serve.Cache.misses c, Serve.Cache.evictions c)
  in
  Printf.printf "  %d rows/request over %d contexts\n" rows contexts;
  Printf.printf
    "  cold %.4f s   warm %.4f s   -> warm-cache speedup x%.2f   %s\n" cold
    warm (cold /. warm)
    (if identical then "rows identical" else "ROWS DIFFER (bug!)");
  List.iter
    (fun (w, s) -> Printf.printf "  workers=%-2d warm %.4f s\n" w s)
    workers_rows;
  Printf.printf "  throughput: %d warm requests in %.3f s (%.1f req/s)\n"
    throughput_requests throughput_seconds
    (float_of_int throughput_requests /. throughput_seconds);
  let hits, misses, evictions = cache_stats in
  Printf.printf "  cache: %d hit(s), %d miss(es), %d eviction(s)\n" hits
    misses evictions;
  write_serve_json "BENCH_serve.json" ~rows ~contexts ~cold ~warm
    ~workers_rows ~throughput_requests ~throughput_seconds ~identical
    cache_stats;
  Printf.printf "  wrote BENCH_serve.json\n"

(* --- experiment registry --------------------------------------------- *)

let experiments =
  [
    ("fig2", "Fig. 2: MC vs analytic delay distributions", E.Fig2.run);
    ("fig3", "Fig. 3: Clark model error trends", E.Fig3.run);
    ("fig4", "Fig. 4: (mu, sigma) design space", E.Fig4.run);
    ("fig5", "Fig. 5: variability vs depth / stage count", E.Fig5.run);
    ("table1", "Table I: model vs MC across configurations", E.Table1.run);
    ("fig7", "Figs. 7-8: balanced vs unbalanced ALU-decoder", E.Fig7_8.run);
    ( "table2",
      "Table II: ensure yield with small area penalty",
      fun () ->
        E.Common.section
          "Table II: ensuring the 80% yield target with small area penalty";
        E.Table2_3.print_table (E.Table2_3.compute E.Table2_3.Ensure_yield) );
    ( "table3",
      "Table III: area reduction under a yield constraint",
      fun () ->
        E.Common.section "Table III: area reduction at the 80% yield target";
        E.Table2_3.print_table (E.Table2_3.compute E.Table2_3.Minimise_area) );
    ( "ablations",
      "Extensions: criticality, correlation length, sizer policy, leakage",
      E.Ablations.run );
    ( "engine",
      "Engine scaling: parallel MC trials/sec vs domains (writes \
       BENCH_engine.json)",
      run_engine_scaling );
    ( "pruning",
      "Static criticality pruning: pruned vs unpruned gate-level MC",
      run_pruning_study );
    ( "affine",
      "Affine vs interval enclosure tightness + MC containment (writes \
       BENCH_affine.json)",
      run_affine_study );
    ( "sweep",
      "Scenario sweep: shared-context caching vs cold per-scenario runs \
       (writes BENCH_sweep.json)",
      run_sweep_study );
    ( "hier",
      "Hierarchical SSTA: macro-memoised vs flat evaluation of a 1M-gate \
       pipeline (writes BENCH_hier.json)",
      run_hier_study );
    ( "fuzz",
      "Fuzz campaign: differential-oracle throughput (writes \
       BENCH_fuzz.json)",
      run_fuzz_study );
    ( "tail",
      "Deep-tail importance sampling: cone-guided vs legacy mixture ESS at \
       4-8 sigma (writes BENCH_tail.json)",
      run_tail_study );
    ( "sens",
      "Certified sensitivity pruning: sizer wall-time and evaluation counts \
       with pruning off vs on (writes BENCH_sens.json)",
      run_sens_study );
    ( "serve",
      "Evaluation daemon: cold vs warm context-cache latency and request \
       throughput (writes BENCH_serve.json)",
      run_serve_study );
  ]

(* --- Bechamel micro-benchmarks of the analysis kernels -------------- *)

let perf_tests () =
  let open Bechamel in
  let tech = E.Common.base_tech in
  let ff = Spv_process.Flipflop.default tech in
  let stages12 =
    Array.init 12 (fun i ->
        Spv_stats.Gaussian.make ~mu:(100.0 +. float_of_int i) ~sigma:5.0)
  in
  let corr12 = Spv_stats.Correlation.uniform ~n:12 ~rho:0.3 in
  let stage_objs =
    Array.init 12 (fun i ->
        Spv_core.Stage.of_moments ~mu:(100.0 +. float_of_int i) ~sigma:5.0
          ~name:(string_of_int i) ())
  in
  let pipeline = Spv_core.Pipeline.make stage_objs ~corr:corr12 in
  let c432 = Spv_circuit.Generators.c432 () in
  let chain = Spv_circuit.Generators.inverter_chain ~depth:10 () in
  let rng = Spv_stats.Rng.create ~seed:99 in
  [
    Test.make ~name:"clark_max12_corr"
      (Staged.stage (fun () ->
           ignore (Spv_core.Clark.max_n stages12 ~corr:corr12)));
    Test.make ~name:"yield_clark_gaussian"
      (Staged.stage (fun () ->
           ignore (Spv_core.Yield.clark_gaussian pipeline ~t_target:115.0)));
    Test.make ~name:"yield_independent_exact"
      (Staged.stage (fun () ->
           ignore (Spv_core.Yield.independent_exact pipeline ~t_target:115.0)));
    Test.make ~name:"pipeline_mc_100"
      (Staged.stage (fun () ->
           ignore (Spv_core.Yield.monte_carlo pipeline rng ~n:100 ~t_target:115.0)));
    Test.make ~name:"sta_c432"
      (Staged.stage (fun () -> ignore (Spv_circuit.Sta.run tech c432)));
    Test.make ~name:"ssta_stage_chain10"
      (Staged.stage (fun () ->
           ignore (Spv_circuit.Ssta.analyse_stage ~ff tech chain)));
    Test.make ~name:"big_phi_inv"
      (Staged.stage (fun () -> ignore (Spv_stats.Special.big_phi_inv 0.8)));
    (let ectx = Engine.Ctx.of_pipeline pipeline in
     let mc jobs () =
       ignore (Engine.yield ~method_:Engine.Mc ~jobs ~n:512 ectx ~t_target:115.0)
     in
     Test.make_grouped ~name:"engine_seq_vs_par"
       [
         Test.make ~name:"mc512_jobs1" (Staged.stage (mc 1));
         Test.make ~name:"mc512_jobs2" (Staged.stage (mc 2));
         Test.make ~name:"mc512_jobs4" (Staged.stage (mc 4));
       ]);
  ]

let run_perf () =
  let open Bechamel in
  E.Common.section "Micro-benchmarks (Bechamel): core analysis kernels";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let tests = Test.make_grouped ~name:"spv" (perf_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%12.1f ns/run" t
        | Some [] | None -> "     (no est.)"
      in
      Printf.printf "  %-28s %s\n" name ns)
    (List.sort compare rows)

let () =
  let argv = Array.to_list Sys.argv in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            jobs_sweep :=
              Array.of_list (List.sort_uniq compare [ 1; 2; 4; n ]);
            parse_args acc rest
        | _ ->
            Printf.eprintf "--jobs expects a positive integer\n";
            exit 2)
    | "--jobs" :: [] ->
        Printf.eprintf "--jobs expects a positive integer\n";
        exit 2
    | a :: rest -> parse_args (a :: acc) rest
  in
  let args = parse_args [] (List.tl argv) in
  if List.mem "--list" args then begin
    List.iter
      (fun (id, descr, _) -> Printf.printf "%-8s %s\n" id descr)
      experiments;
    exit 0
  end;
  let no_perf = List.mem "--no-perf" args in
  let selected = List.filter (fun a -> a <> "--no-perf") args in
  let to_run =
    if selected = [] then experiments
    else
      List.map
        (fun id ->
          match List.find_opt (fun (i, _, _) -> i = id) experiments with
          | Some e -> e
          | None ->
              Printf.eprintf "unknown experiment %S (try --list)\n" id;
              exit 2)
        selected
  in
  let t0 = Sys.time () in
  List.iter
    (fun (id, _descr, run) ->
      let t = Sys.time () in
      run ();
      Printf.printf "\n[%s done in %.1fs]\n" id (Sys.time () -. t))
    to_run;
  if not no_perf then run_perf ();
  Printf.printf "\nTotal bench time: %.1fs\n" (Sys.time () -. t0)
