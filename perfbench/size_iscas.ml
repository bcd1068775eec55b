(* size-iscas: one op is Table2_3.compute Minimise_area on the 4-stage
   ISCAS85 pipeline: the per-stage baseline, then minimise_area (with
   its own ensure_yield pass), then the two 40k-sample MC checks.  The
   time goes to Lagrangian sizing, Ctx.refresh_stage and the certify
   postcondition.  ensure_yield's certified probe skip is counted, but
   at this target the baseline already meets the yield and nothing is
   probed. *)

module Engine = Spv_engine.Engine
module GO = Spv_sizing.Global_opt
module L = Spv_sizing.Lagrangian
module T23 = Spv_experiments.Table2_3
module Common = Spv_experiments.Common
module M = Measure

(* MD5 of [Checks.sizing_report]; the sizing does not depend on the
   workload seed. *)
let pinned_digest = "ae3fda67baba0b62d16fa6c37501ae17"

let op () = T23.compute T23.Minimise_area

let verdict ~expected t =
  match Checks.sizing ~expected t with
  | Error _ as e -> e
  | Ok () ->
      let d = Digest.to_hex (Digest.string (Checks.sizing_report t)) in
      if d = pinned_digest then Ok ()
      else Checks.fail "size-iscas: report digest %s differs from pinned %s" d pinned_digest

(* ---- traced replay -------------------------------------------------- *)

(* Counts and times the certify postcondition through the public hook. *)
type certify_spans = { mutable calls : int; mutable secs : float }

let certify_spans = { calls = 0; secs = 0.0 }

let install_timed_certify () =
  Spv_sizing.Certify_hook.register (fun ~where ~t_target ~z ~converged ~mu ~sigma ->
      let r, dt =
        M.timed (fun () ->
            Spv_analysis.Certify.sizing_check ~where ~t_target ~z ~converged ~mu ~sigma)
      in
      certify_spans.calls <- certify_spans.calls + 1;
      certify_spans.secs <- certify_spans.secs +. dt;
      r)

type traced = {
  wall : float;
  min_delay : float;
  baseline : float;
  minimise : float;
  mc_check : float;
  ctx : float;
  builds : int;
  draws : int;
  mc_words : float;
  certify_calls : int;
  certify : float;
  probes_run : int;
  probes_skipped : int;
  gc : M.gc;
}

(* Table2_3.compute's public calls, one span each.  [jobs] is passed
   to the MC checks: left out, they run at Par.default_jobs as compute
   runs them; at 1 the allocation counts are exact.  jobs never
   changes their result. *)
let traced_op ?jobs () =
  certify_spans.calls <- 0;
  certify_spans.secs <- 0.0;
  Spv_sizing.Sens_hook.reset_stats ();
  let g0 = M.gc_now () in
  let t0 = M.now () in
  let yield_target = 0.8 in
  let tech = Common.optimisation_tech in
  let ff = Spv_process.Flipflop.default tech in
  let nets = Spv_circuit.Generators.iscas_pipeline () in
  let z =
    Spv_stats.Special.big_phi_inv
      (Spv_core.Yield.per_stage_yield_target ~yield:yield_target
         ~n_stages:(Array.length nets))
  in
  let fast_critical, min_delay =
    M.timed (fun () -> L.minimum_achievable_delay ~ff tech nets.(0) ~z)
  in
  let t_target = fast_critical *. 1.02 in
  let baseline, baseline_s =
    M.timed (fun () -> GO.individually_optimised ~ff tech nets ~t_target ~yield_target)
  in
  let proposed, minimise =
    M.timed (fun () -> GO.minimise_area ~ff tech nets ~t_target ~yield_target)
  in
  let ctx_s = ref 0.0 and builds = ref 0 and draws = ref 0 and mc_words = ref 0.0 in
  let mc_yield (r : GO.result) =
    let ctx, dt = M.timed (fun () -> Engine.Ctx.of_pipeline r.GO.pipeline) in
    ctx_s := !ctx_s +. dt;
    incr builds;
    let w0 = Gc.minor_words () in
    let e =
      Engine.yield ~method_:Engine.Mc ?jobs ~seed:Common.seed ~n:40000 ctx ~t_target
    in
    mc_words := !mc_words +. (Gc.minor_words () -. w0);
    draws := !draws + e.Engine.n_samples;
    e.Engine.value
  in
  let (mc_yield_baseline, mc_yield_proposed), mc_check =
    M.timed (fun () ->
        let b = mc_yield baseline in
        (b, mc_yield proposed))
  in
  let wall = M.now () -. t0 in
  let gc = M.gc_delta g0 (M.gc_now ()) in
  let table =
    {
      T23.scenario = T23.Minimise_area;
      t_target;
      yield_target;
      baseline;
      proposed;
      mc_yield_baseline;
      mc_yield_proposed;
    }
  in
  let st = Spv_sizing.Sens_hook.stats in
  ( table,
    {
      wall;
      min_delay;
      baseline = baseline_s;
      minimise;
      mc_check;
      ctx = !ctx_s;
      builds = !builds;
      draws = !draws;
      mc_words = !mc_words;
      certify_calls = certify_spans.calls;
      certify = certify_spans.secs;
      probes_run = st.Spv_sizing.Sens_hook.probes_run;
      probes_skipped = st.Spv_sizing.Sens_hook.probes_skipped;
      gc;
    } )

(* Times from the traced ops, which run as compute does; allocation
   counts from [exact], the jobs=1 replay. *)
let layers ~(exact : traced) (ts : traced array) =
  let m f = M.mean (Array.map f ts) in
  let ms f = 1000.0 *. m f in
  let spans t = t.min_delay +. t.baseline +. t.minimise +. t.mc_check in
  let engine t = t.mc_check -. t.ctx in
  [
    ("sizing.min_delay_ms", ms (fun t -> t.min_delay));
    ("sizing.baseline_ms", ms (fun t -> t.baseline));
    ("sizing.minimise_ms", ms (fun t -> t.minimise));
    ("sizing.mc_check_ms", ms (fun t -> t.mc_check));
    ("sizing.probes_run", m (fun t -> float_of_int t.probes_run));
    ("sizing.probes_skipped", m (fun t -> float_of_int t.probes_skipped));
    ("checks.certify_calls", m (fun t -> float_of_int t.certify_calls));
    ("checks.certify_ms", ms (fun t -> t.certify));
    ("ctx.builds", m (fun t -> float_of_int t.builds));
    ("ctx.build_ms", ms (fun t -> t.ctx));
    ("engine.ms", ms engine);
    ("engine.draws", m (fun t -> float_of_int t.draws));
    ("engine.mc.trials_per_s", m (fun t -> float_of_int t.draws) /. m engine);
    ("engine.minor_words_per_draw", exact.mc_words /. float_of_int exact.draws);
    ("trace.coverage", m spans /. m (fun t -> t.wall));
  ]
  @ M.gc_metrics [| exact.gc |]

let run (env : M.env) =
  let expected = ref None in
  let check t =
    let report = Checks.sizing_report t in
    let e = match !expected with Some r -> r | None -> expected := Some report; report in
    verdict ~expected:e t
  in
  let setups, peak_rss_mb, (untraced, traced, layers) =
    M.with_setups
      (fun () ->
        Hooks.install ();
        ignore (op ()))
      (fun () ->
        let untraced =
          M.closed_loop ~prepare:M.fresh_heap ~seconds:(M.windows env) (fun _ ->
              let t, dt = M.timed op in
              { M.ms = dt *. 1000.0; verdict = check t })
        in
        if not env.M.trace then (untraced, None, [])
        else (
          install_timed_certify ();
          M.fresh_heap ();
          let t, exact = traced_op ~jobs:1 () in
          let exact_failures =
            match check t with Ok () -> [] | Error m -> [ "jobs=1 replay: " ^ m ]
          in
          let ts = ref [] in
          let loop =
            M.closed_loop ~prepare:M.fresh_heap ~seconds:(M.windows env) (fun _ ->
                let t, tr = traced_op () in
                ts := tr :: !ts;
                { M.ms = tr.wall *. 1000.0; verdict = check t })
          in
          ( untraced,
            Some { loop with M.failures = exact_failures @ loop.M.failures },
            layers ~exact (Array.of_list !ts) )))
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
          "input: Table2_3.compute Minimise_area on the 4-stage ISCAS85 \
           pipeline; MC checks at Par.default_jobs = %d"
          (Spv_engine.Par.default_jobs ());
        Printf.sprintf "report md5 %s (pinned %s)"
          (match !expected with
          | Some r -> Digest.to_hex (Digest.string r)
          | None -> "none")
          pinned_digest;
      ];
  }
