(* The repository benchmark: one workload per run.

     main.exe --workload sweep-mc|serve-mixed|size-iscas --seconds S
              [--seed N] [--trace 0|1] [--nproc N] [--git-rev REV]

   Prints a description of the run on lines starting with "#", then one
   JSON object on the last line: with --trace 0 the end-to-end metrics
   of an untraced closed loop, with --trace 1 the per-layer metrics of
   a traced loop (after an untraced one, which gives the tracing
   overhead).  Exits 1 when an output check failed, 2 when it refuses
   to run. *)

module M = Measure

let workloads =
  [
    ("sweep-mc", Sweep_mc.run);
    ("serve-mixed", Serve_mixed.run);
    ("size-iscas", Size_iscas.run);
  ]

(* Every per-layer metric with its unit, the one copy in the code (run.py
   checks it against BENCHMARK.json); a layer the workload does not
   exercise reads 0. *)
let per_layer =
  [
    ("engine.ms", "ms");
    ("engine.draws", "count");
    ("engine.mc.trials_per_s", "1/s");
    ("engine.adaptive.trials_per_s", "1/s");
    ("engine.importance.draws_per_s", "1/s");
    ("engine.closed_form_ms", "ms");
    ("engine.minor_words_per_draw", "words/draw");
    ("gc.minor_words", "words");
    ("gc.major_words", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("ctx.builds", "count");
    ("ctx.build_ms", "ms");
    ("grid.parse_ms", "ms");
    ("grid.lookup_ms", "ms");
    ("grid.lookups", "count");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.cache_misses", "1/req");
    ("serve.cache_evictions", "1/req");
    ("serve.hit_request_ms", "ms");
    ("serve.miss_request_ms", "ms");
    ("serve.response_bytes", "bytes");
    ("serve.self_ms", "ms");
    ("emit.ms", "ms");
    ("emit.bytes", "bytes");
    ("sizing.baseline_ms", "ms");
    ("sizing.minimise_ms", "ms");
    ("sizing.min_delay_ms", "ms");
    ("sizing.mc_check_ms", "ms");
    ("sizing.probes_run", "count");
    ("sizing.probes_skipped", "count");
    ("checks.certify_calls", "count");
    ("checks.certify_ms", "ms");
    ("trace.coverage", "ratio");
    ("trace.overhead_pct", "%");
  ]

let die code fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit code)
    fmt

let () =
  let workload = ref "" and seed = ref Spv_engine.Engine.default_seed in
  let seconds = ref nan and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) and git_rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " sweep-mc | serve-mixed | size-iscas");
      ("--seed", Arg.Set_int seed, " workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, " measured seconds (required)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--nproc", Arg.Set_int nproc, " online CPUs (default: domain count)");
      ("--git-rev", Arg.Set_string git_rev, " commit being measured");
    ]
    (fun a -> die 2 "unexpected argument %s" a)
    "main.exe --workload W --seconds S [--seed N] [--trace 0|1]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
        die 2 "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map fst workloads))
  in
  if !trace <> 0 && !trace <> 1 then die 2 "--trace takes 0 or 1";
  if !seed < 0 then die 2 "--seed must be >= 0";
  if not (!seconds > 0.0) then die 2 "--seconds must be given and > 0";
  Option.iter (die 2 "refusing to run: %s") (Hooks.refuse_reason ~nproc:!nproc);
  let t_start = M.now () in
  Hooks.install ();
  let jobs = max 1 (min 2 !nproc) in
  let env = { M.seed = !seed; seconds = !seconds; trace = !trace = 1; jobs } in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n" !workload
    !seed !seconds !trace;
  Printf.printf
    "# host nproc=%d recommended_domain_count=%d ocaml=%s git_rev=%s jobs=%d (min(2, nproc))\n"
    !nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !git_rev jobs;
  Printf.printf
    "# hooks bounds+affine engine checks, certify sizing check, cone \
     proposal (installed=%b), dominance pruning; env %s\n"
    (Spv_engine.Engine.proposal_provider_installed ())
    (Hooks.describe_env ());
  let r = run env in
  List.iter (Printf.printf "# %s\n") r.M.notes;
  let loops = r.M.untraced :: Option.to_list r.M.traced in
  let attempted = List.fold_left (fun a l -> a + Array.length l.M.outcomes) 0 loops in
  let failed = List.fold_left (fun a l -> a + M.failed l) 0 loops in
  List.iteri
    (fun i m -> if i < 5 then Printf.printf "# FAILED %s\n" m)
    (List.concat_map (fun l -> l.M.failures) loops);
  let ms = M.op_ms r.M.untraced in
  let n = Array.length ms in
  let setup_s = M.median r.M.setups in
  let p50 = M.median ms in
  let ops_per_s = float_of_int n /. (M.sum ms /. 1000.0) in
  let rss = r.M.peak_rss_mb in
  Printf.printf "# setup_s %.4f (median of %d set-ups: %s)\n" setup_s
    (Array.length r.M.setups)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") r.M.setups)));
  Printf.printf "# op_p50_ms %.4f over %d untraced ops (min %.4f p25 %.4f p75 %.4f max %.4f)\n"
    p50 n (M.percentile ms 0.0) (M.percentile ms 25.0) (M.percentile ms 75.0)
    (M.percentile ms 100.0);
  (match M.tail_percentile n with
  | Some p -> Printf.printf "# op_tail_ms %.4f at p%g (%d ops)\n" (M.percentile ms p) p n
  | None ->
      Printf.printf "# op_tail_ms not reported: %d ops leave fewer than 10 beyond p75\n" n);
  Printf.printf "# ops_per_s %.4f\n" ops_per_s;
  Printf.printf "# failed_share %g (%d of %d ops attempted)\n"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  Printf.printf "# peak_rss_mb %.2f\n" rss;
  Printf.printf "# wall_s %.2f\n" (M.now () -. t_start);
  let metrics =
    match r.M.traced with
    | None ->
        [
          ("setup_s", "s", setup_s);
          ("op_p50_ms", "ms", p50);
          ("ops_per_s", "1/s", ops_per_s);
          ("peak_rss_mb", "MiB", rss);
        ]
    | Some traced ->
        let overhead = 100.0 *. ((M.median (M.op_ms traced) /. p50) -. 1.0) in
        let layers = ("trace.overhead_pct", overhead) :: r.M.layers in
        List.iter
          (fun (name, _) ->
            if not (List.mem_assoc name per_layer) then
              die 2 "workload reports %s, which is not a per-layer metric" name)
          layers;
        List.map
          (fun (name, unit_) ->
            (name, unit_, Option.value (List.assoc_opt name layers) ~default:0.0))
          per_layer
  in
  print_endline (M.result_json ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)
