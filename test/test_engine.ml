(* The engine's two contracts under test here:

   1. Determinism: every estimate is a pure function of (seed, shards);
      the worker-domain count [jobs] must never change a single bit of
      the result.

   2. Agreement: each taxonomy method must reproduce the legacy
      closed-form / sampling result it wraps.  *)

module Engine = Spv_engine.Engine
module Par = Spv_engine.Par
module G = Spv_stats.Gaussian
module Gen = Spv_circuit.Generators
module Pipeline = Spv_core.Pipeline
module Yield = Spv_core.Yield

let tech = Spv_process.Tech.bptm70

let bits f = Int64.bits_of_float f

let check_bits name a b =
  Alcotest.(check int64) name (bits a) (bits b)

let moments_pipeline ?(rho = 0.3) () =
  let stages =
    Array.init 6 (fun i ->
        Spv_core.Stage.of_moments
          ~mu:(100.0 +. (2.0 *. float_of_int i))
          ~sigma:(3.0 +. (0.5 *. float_of_int i))
          ())
  in
  Pipeline.make stages ~corr:(Spv_stats.Correlation.uniform ~n:6 ~rho)

let moments_ctx ?rho () = Engine.Ctx.of_pipeline (moments_pipeline ?rho ())

(* Three structurally different circuits, as the determinism contract
   must hold for any workload shape (stage counts both below and above
   the shard count). *)
let circuit_cases () =
  let ff = Spv_process.Flipflop.default tech in
  [
    ("chain 4x6", Gen.inverter_chain_pipeline ~stages:4 ~depth:6 ());
    ("variable depth", Gen.variable_depth_pipeline ~depths:[| 5; 7; 9 |] ());
    ( "heterogeneous 10",
      Array.init 10 (fun i -> Gen.inverter_chain ~depth:(3 + (i mod 4)) ()) );
  ]
  |> List.map (fun (name, nets) -> (name, Engine.Ctx.of_circuits ~ff tech nets))

(* ---- determinism across jobs ---------------------------------------- *)

let test_adaptive_yield_jobs_invariant () =
  List.iter
    (fun (name, ctx) ->
      let t_target = G.quantile (Engine.Ctx.delay_distribution ctx) ~p:0.85 in
      let run jobs =
        Engine.yield ~method_:Engine.Adaptive_mc ~jobs ~seed:7 ~batch:256
          ~min_samples:512 ~max_samples:8192 ctx ~t_target
      in
      let a = run 1 and b = run 4 in
      check_bits (name ^ ": value") a.Engine.value b.Engine.value;
      check_bits (name ^ ": se") a.Engine.std_error b.Engine.std_error;
      Alcotest.(check int)
        (name ^ ": n") a.Engine.n_samples b.Engine.n_samples;
      Alcotest.(check bool)
        (name ^ ": stop") true
        (a.Engine.stop = b.Engine.stop))
    (circuit_cases ())

let test_gate_level_delays_jobs_invariant () =
  List.iter
    (fun (name, ctx) ->
      let run jobs = Engine.gate_level_delays ~jobs ~seed:11 ctx ~n:600 in
      let a = run 1 and b = run 4 in
      Alcotest.(check (array int64))
        (name ^ ": samples") (Array.map bits a) (Array.map bits b))
    (circuit_cases ())

let test_sample_delays_jobs_invariant () =
  let ctx = moments_ctx () in
  let run jobs = Engine.sample_delays ~jobs ~seed:3 ctx ~n:2000 in
  Alcotest.(check (array int64))
    "sample_delays" (Array.map bits (run 1)) (Array.map bits (run 4))

let test_stage_samples_jobs_invariant () =
  let _, ctx = List.hd (circuit_cases ()) in
  let run jobs = Engine.gate_level_stage_samples ~jobs ~seed:5 ctx ~n:400 in
  let a = run 1 and b = run 4 in
  Array.iteri
    (fun s row ->
      Alcotest.(check (array int64))
        (Printf.sprintf "stage %d" s)
        (Array.map bits row) (Array.map bits b.(s)))
    a

let test_jobs_env_fallback () =
  (* Par.default_jobs reads SPV_JOBS; bad values fall back to the
     runtime recommendation. *)
  let with_env v f =
    (match v with
    | Some s -> Unix.putenv "SPV_JOBS" s
    | None -> Unix.putenv "SPV_JOBS" "");
    Fun.protect ~finally:(fun () -> Unix.putenv "SPV_JOBS" "") f
  in
  with_env (Some "3") (fun () ->
      Alcotest.(check int) "SPV_JOBS=3" 3 (Par.default_jobs ()));
  with_env (Some "0") (fun () ->
      Alcotest.(check int) "SPV_JOBS=0 falls back"
        (Domain.recommended_domain_count ())
        (Par.default_jobs ()));
  with_env (Some "nope") (fun () ->
      Alcotest.(check int) "garbage falls back"
        (Domain.recommended_domain_count ())
        (Par.default_jobs ()))

(* ---- agreement with the legacy estimators ---------------------------- *)

let test_closed_forms_match_yield_module () =
  let p = moments_pipeline () in
  let ctx = Engine.Ctx.of_pipeline p in
  let t_target = 118.0 in
  let clark = Engine.yield ~method_:Engine.Analytic_clark ctx ~t_target in
  check_bits "clark" (Yield.clark_gaussian p ~t_target) clark.Engine.value;
  Alcotest.(check bool) "clark closed form" true
    (clark.Engine.stop = Engine.Closed_form && clark.Engine.n_samples = 0);
  let p0 = moments_pipeline ~rho:0.0 () in
  let ctx0 = Engine.Ctx.of_pipeline p0 in
  let ind = Engine.yield ~method_:Engine.Exact_independent ctx0 ~t_target in
  check_bits "independent" (Yield.independent_exact p0 ~t_target)
    ind.Engine.value

let test_mc_agrees_with_closed_form () =
  let ctx = moments_ctx () in
  let t_target = G.quantile (Engine.Ctx.delay_distribution ctx) ~p:0.8 in
  let mc = Engine.yield ~method_:Engine.Mc ~n:40_000 ctx ~t_target in
  let clark = Engine.yield ~method_:Engine.Analytic_clark ctx ~t_target in
  Alcotest.(check bool)
    (Printf.sprintf "mc %.4f vs clark %.4f" mc.Engine.value clark.Engine.value)
    true
    (Float.abs (mc.Engine.value -. clark.Engine.value) < 0.015);
  Alcotest.(check bool) "fixed-n" true (mc.Engine.stop = Engine.Fixed_n);
  Alcotest.(check int) "n echoed" 40_000 mc.Engine.n_samples

let test_importance_matches_plain_mc () =
  let ctx = moments_ctx () in
  let t_target = G.quantile (Engine.Ctx.delay_distribution ctx) ~p:0.95 in
  let imp = Engine.yield ~method_:Engine.Importance ~n:20_000 ctx ~t_target in
  let clark = Engine.yield ~method_:Engine.Analytic_clark ctx ~t_target in
  Alcotest.(check bool)
    (Printf.sprintf "importance %.4f vs clark %.4f" imp.Engine.value
       clark.Engine.value)
    true
    (Float.abs (imp.Engine.value -. clark.Engine.value) < 0.02)

let test_quadrature_degenerates_to_clark () =
  (* A moments-built pipeline has no inter-die decomposition, so the
     quadrature over the inter-die variable collapses to Clark. *)
  let ctx = moments_ctx () in
  let t_target = 117.0 in
  let q = Engine.yield ~method_:Engine.Quadrature ctx ~t_target in
  let clark = Engine.yield ~method_:Engine.Analytic_clark ctx ~t_target in
  Alcotest.(check bool) "quadrature ~ clark" true
    (Float.abs (q.Engine.value -. clark.Engine.value) < 1e-6)

let test_delay_mean_agrees () =
  let ctx = moments_ctx () in
  let closed = Engine.delay_mean ~method_:Engine.Analytic_clark ctx in
  check_bits "clark mu" (G.mu (Engine.Ctx.delay_distribution ctx))
    closed.Engine.value;
  let mc = Engine.delay_mean ~method_:Engine.Mc ~n:40_000 ctx in
  Alcotest.(check bool)
    (Printf.sprintf "mc mean %.2f vs clark %.2f" mc.Engine.value
       closed.Engine.value)
    true
    (Float.abs (mc.Engine.value -. closed.Engine.value)
    < 4.0 *. mc.Engine.std_error +. 0.3)

let test_recommended_method () =
  Alcotest.(check bool) "correlated -> clark" true
    (Engine.recommended (moments_ctx ~rho:0.4 ()) = Engine.Analytic_clark);
  Alcotest.(check bool) "independent -> exact" true
    (Engine.recommended (moments_ctx ~rho:0.0 ()) = Engine.Exact_independent)

let test_method_names_round_trip () =
  List.iter
    (fun m ->
      match Engine.method_of_string (Engine.method_name m) with
      | Some m' -> Alcotest.(check bool) (Engine.method_name m) true (m = m')
      | None -> Alcotest.failf "%s did not round-trip" (Engine.method_name m))
    Engine.all_methods;
  Alcotest.(check bool) "unknown rejected" true
    (Engine.method_of_string "bogus" = None)

(* ---- adaptive stopping ----------------------------------------------- *)

let test_adaptive_stop_reasons () =
  let ctx = moments_ctx () in
  let t_target = G.quantile (Engine.Ctx.delay_distribution ctx) ~p:0.8 in
  let ok =
    Engine.yield ~batch:512 ~min_samples:512 ~rel_se_target:0.05 ctx ~t_target
  in
  Alcotest.(check bool) "converges" true (ok.Engine.stop = Engine.Converged);
  let capped =
    Engine.yield ~batch:512 ~min_samples:512 ~rel_se_target:1e-6
      ~max_samples:2048 ctx ~t_target
  in
  Alcotest.(check bool) "hits cap" true
    (capped.Engine.stop = Engine.Sample_cap);
  Alcotest.(check int) "cap respected" 2048 capped.Engine.n_samples

(* ---- context refresh -------------------------------------------------- *)

let test_refresh_stage_matches_fresh_context () =
  let ff = Spv_process.Flipflop.default tech in
  let nets = Gen.inverter_chain_pipeline ~stages:3 ~depth:5 () in
  let ctx = Engine.Ctx.of_circuits ~ff tech nets in
  (* Resize every gate of stage 1 in place, as the sizers do. *)
  Array.iter
    (fun g -> Spv_circuit.Netlist.set_size nets.(1) g 2.5)
    (Spv_circuit.Netlist.gate_ids nets.(1));
  let refreshed = Engine.Ctx.refresh_stage ctx 1 in
  let fresh = Engine.Ctx.of_circuits ~ff tech nets in
  let d1 = Engine.Ctx.delay_distribution refreshed in
  let d2 = Engine.Ctx.delay_distribution fresh in
  check_bits "mu" (G.mu d2) (G.mu d1);
  check_bits "sigma" (G.sigma d2) (G.sigma d1);
  Alcotest.(check (array (float 1e-12)))
    "sizes tracked"
    (Engine.Ctx.gate_sizes fresh 1)
    (Engine.Ctx.gate_sizes refreshed 1)

(* ---- argument validation ---------------------------------------------- *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_rejects_bad_arguments () =
  let ctx = moments_ctx () in
  expect_invalid "jobs=0" (fun () ->
      Engine.yield ~method_:Engine.Mc ~jobs:0 ~n:16 ctx ~t_target:110.0);
  expect_invalid "shards=0" (fun () ->
      Engine.yield ~method_:Engine.Mc ~shards:0 ~n:16 ctx ~t_target:110.0);
  expect_invalid "n=0" (fun () ->
      Engine.yield ~method_:Engine.Mc ~n:0 ctx ~t_target:110.0);
  expect_invalid "nan target" (fun () ->
      Engine.yield ctx ~t_target:Float.nan);
  expect_invalid "max_samples=0" (fun () ->
      Engine.yield ~max_samples:0 ctx ~t_target:110.0);
  expect_invalid "gate-level on moments ctx" (fun () ->
      Engine.gate_level_delays ctx ~n:16);
  expect_invalid "delay_mean quadrature" (fun () ->
      Engine.delay_mean ~method_:Engine.Quadrature ctx);
  expect_invalid "Par.run jobs=0" (fun () ->
      Par.run ~jobs:0 [| (fun () -> ()) |])

(* ---- Par ------------------------------------------------------------- *)

let test_par_run_preserves_order () =
  let tasks = Array.init 23 (fun i () -> i * i) in
  Alcotest.(check (array int))
    "order" (Array.init 23 (fun i -> i * i)) (Par.run ~jobs:4 tasks);
  Alcotest.(check (array int)) "empty" [||] (Par.run ~jobs:4 [||])

let test_par_run_propagates_exceptions () =
  let boom _ () = failwith "boom" in
  match Par.run ~jobs:3 (Array.init 5 boom) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ()

(* A team keeps its helper domains across batches: every batch's
   results come back in task order, task [i] runs on the same domain
   in every batch, and a task's exception reaches the caller after the
   helpers are stopped. *)
let test_par_team_batches () =
  let domain_of () = (Domain.self () :> int) in
  Par.with_team ~jobs:3 (fun team ->
      let first = Par.run_on team (Array.init 7 (fun _ () -> domain_of ())) in
      for b = 1 to 40 do
        let r = Par.run_on team (Array.init 7 (fun i () -> (b * 10) + i)) in
        Alcotest.(check (array int))
          (Printf.sprintf "batch %d order" b)
          (Array.init 7 (fun i -> (b * 10) + i))
          r
      done;
      Alcotest.(check (array int)) "task i stays on its domain" first
        (Par.run_on team (Array.init 7 (fun _ () -> domain_of ()))));
  match
    Par.with_team ~jobs:3 (fun team ->
        Par.run_on team
          (Array.init 5 (fun i () -> if i = 4 then failwith "boom" else i)))
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ()

(* Sampling allocates almost nothing on the calling domain, so minor
   collections, and with them major slices, are rare.  The heap left
   by each joined worker domain must still be reclaimed: over 2000
   two-domain MC calls the major heap grows by about 230k words with a
   slice after the join, and by about 940k without one. *)
let test_par_run_heap_stays_flat () =
  let ctx = moments_ctx () in
  let call () =
    ignore (Engine.yield ~method_:Engine.Mc ~jobs:2 ~n:256 ctx ~t_target:110.0)
  in
  for _ = 1 to 200 do
    call ()
  done;
  Gc.full_major ();
  let h0 = (Gc.quick_stat ()).Gc.heap_words in
  for _ = 1 to 2000 do
    call ()
  done;
  let grown = (Gc.quick_stat ()).Gc.heap_words - h0 in
  if grown > 500_000 then
    Alcotest.failf "major heap grew by %d words over 2000 calls" grown

let suite =
  [
    Alcotest.test_case "adaptive yield is jobs-invariant" `Slow
      test_adaptive_yield_jobs_invariant;
    Alcotest.test_case "gate-level delays are jobs-invariant" `Slow
      test_gate_level_delays_jobs_invariant;
    Alcotest.test_case "sample_delays is jobs-invariant" `Quick
      test_sample_delays_jobs_invariant;
    Alcotest.test_case "stage samples are jobs-invariant" `Slow
      test_stage_samples_jobs_invariant;
    Alcotest.test_case "SPV_JOBS fallback" `Quick test_jobs_env_fallback;
    Alcotest.test_case "closed forms match Yield" `Quick
      test_closed_forms_match_yield_module;
    Alcotest.test_case "MC agrees with closed form" `Slow
      test_mc_agrees_with_closed_form;
    Alcotest.test_case "importance sampling agrees" `Slow
      test_importance_matches_plain_mc;
    Alcotest.test_case "quadrature degenerates to Clark" `Quick
      test_quadrature_degenerates_to_clark;
    Alcotest.test_case "delay_mean agrees" `Slow test_delay_mean_agrees;
    Alcotest.test_case "recommended method" `Quick test_recommended_method;
    Alcotest.test_case "method names round-trip" `Quick
      test_method_names_round_trip;
    Alcotest.test_case "adaptive stop reasons" `Quick
      test_adaptive_stop_reasons;
    Alcotest.test_case "refresh_stage matches fresh context" `Quick
      test_refresh_stage_matches_fresh_context;
    Alcotest.test_case "rejects bad arguments" `Quick
      test_rejects_bad_arguments;
    Alcotest.test_case "Par.run preserves order" `Quick
      test_par_run_preserves_order;
    Alcotest.test_case "Par.run propagates exceptions" `Quick
      test_par_run_propagates_exceptions;
    Alcotest.test_case "Par.run: heap stays flat across calls" `Slow
      test_par_run_heap_stays_flat;
    Alcotest.test_case "Par.with_team: batches keep their domains" `Quick
      test_par_team_batches;
  ]
