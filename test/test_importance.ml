open Helpers
module I = Spv_stats.Importance
module Mvn = Spv_stats.Mvn
module C = Spv_stats.Correlation
module Rng = Spv_stats.Rng

let test_single_gaussian_tail () =
  (* One dimension: P(X > mu + k sigma) has a closed form. *)
  let mvn = Mvn.create ~mus:[| 100.0 |] ~sigmas:[| 5.0 |] ~corr:(C.independent ~n:1) in
  List.iter
    (fun k ->
      let threshold = 100.0 +. (k *. 5.0) in
      let e = I.failure_above mvn (Rng.create ~seed:210) ~n:40_000 ~threshold in
      let exact = Spv_stats.Special.big_phi (-.k) in
      check_in_range
        (Printf.sprintf "tail at %g sigma" k)
        ~lo:(0.93 *. exact) ~hi:(1.07 *. exact) e.I.probability)
    [ 2.0; 3.0; 4.0; 5.0 ]

let test_deep_tail_beyond_plain_mc () =
  (* At 5 sigma (p ~ 2.9e-7) a 40k plain MC sees nothing; IS nails it. *)
  let mvn = Mvn.create ~mus:[| 0.0 |] ~sigmas:[| 1.0 |] ~corr:(C.independent ~n:1) in
  let plain = I.plain_failure_above mvn (Rng.create ~seed:211) ~n:40_000 ~threshold:5.0 in
  check_float "plain MC blind" 0.0 plain.I.probability;
  let is = I.failure_above mvn (Rng.create ~seed:212) ~n:40_000 ~threshold:5.0 in
  let exact = Spv_stats.Special.big_phi (-5.0) in
  check_in_range "IS sees it" ~lo:(0.9 *. exact) ~hi:(1.1 *. exact)
    is.I.probability

let test_unbiased_vs_plain_in_easy_regime () =
  (* Where plain MC works, both estimators agree. *)
  let mvn =
    Mvn.create ~mus:[| 10.0; 11.0; 9.5 |] ~sigmas:[| 1.0; 1.2; 0.8 |]
      ~corr:(C.uniform ~n:3 ~rho:0.4)
  in
  let threshold = 13.0 in
  let plain = I.plain_failure_above mvn (Rng.create ~seed:213) ~n:200_000 ~threshold in
  let is = I.failure_above mvn (Rng.create ~seed:214) ~n:50_000 ~threshold in
  check_in_range "agree"
    ~lo:(plain.I.probability -. (3.0 *. plain.I.std_error) -. (3.0 *. is.I.std_error))
    ~hi:(plain.I.probability +. (3.0 *. plain.I.std_error) +. (3.0 *. is.I.std_error))
    is.I.probability

let test_is_variance_advantage () =
  let mvn = Mvn.create ~mus:[| 0.0 |] ~sigmas:[| 1.0 |] ~corr:(C.independent ~n:1) in
  let threshold = 4.0 in
  let is = I.failure_above mvn (Rng.create ~seed:215) ~n:20_000 ~threshold in
  let plain = I.plain_failure_above mvn (Rng.create ~seed:216) ~n:20_000 ~threshold in
  (* Relative precision: IS standard error per unit probability is far
     smaller (plain has almost no hits at 4 sigma). *)
  let exact = Spv_stats.Special.big_phi (-4.0) in
  Alcotest.(check bool) "IS relatively tighter" true
    (is.I.std_error /. exact < 0.1
    && (plain.I.probability = 0.0 || plain.I.std_error /. exact > 0.5))

let test_effective_samples_diagnostic () =
  let mvn = Mvn.create ~mus:[| 0.0 |] ~sigmas:[| 1.0 |] ~corr:(C.independent ~n:1) in
  let good = I.failure_above mvn (Rng.create ~seed:217) ~n:10_000 ~threshold:4.0 in
  Alcotest.(check bool) "healthy ESS" true (good.I.effective_samples > 100.0);
  (* A terrible shift (pointing away from the failure region) collapses
     the diagnostic. *)
  let bad =
    I.failure_above ~z_shifts:[| [| -6.0 |] |] mvn (Rng.create ~seed:218)
      ~n:10_000 ~threshold:4.0
  in
  Alcotest.(check bool) "bad shift detected" true
    (bad.I.effective_samples < good.I.effective_samples)

let test_pipeline_integration () =
  (* Yield.failure_importance must match 1 - clark yield order of
     magnitude in a moderately rare regime, on a correlated pipeline. *)
  let stages =
    Array.init 4 (fun i ->
        Spv_core.Stage.of_moments ~mu:(100.0 +. float_of_int i) ~sigma:4.0 ())
  in
  let p =
    Spv_core.Pipeline.make stages ~corr:(C.uniform ~n:4 ~rho:0.3)
  in
  let t_target = 118.0 in
  let e = Spv_core.Yield.failure_importance p (Rng.create ~seed:219) ~n:60_000 ~t_target in
  (* Reference by brute force with a big plain MC. *)
  let plain =
    I.plain_failure_above (Spv_core.Pipeline.mvn p) (Rng.create ~seed:220)
      ~n:2_000_000 ~threshold:t_target
  in
  check_in_range "matches brute force"
    ~lo:(0.85 *. plain.I.probability) ~hi:(1.15 *. plain.I.probability)
    e.I.probability

let test_highly_correlated_pipeline () =
  (* Regression: with strongly correlated stages the dominant failure
     mode is the shared factor lifting every stage together; a
     component-at-the-barrier-others-at-mean proposal misses it by
     orders of magnitude.  The design-point mixture must track plain
     MC in the verifiable regime. *)
  let mvn =
    Mvn.create ~mus:[| 100.0; 101.0; 99.0; 100.5 |]
      ~sigmas:[| 8.0; 8.0; 8.0; 8.0 |]
      ~corr:(C.uniform ~n:4 ~rho:0.9)
  in
  let threshold = 118.0 in
  let plain = I.plain_failure_above mvn (Rng.create ~seed:221) ~n:1_000_000 ~threshold in
  let is = I.failure_above mvn (Rng.create ~seed:222) ~n:60_000 ~threshold in
  check_in_range "correlated tail matches"
    ~lo:(0.9 *. plain.I.probability) ~hi:(1.1 *. plain.I.probability)
    is.I.probability

let test_validation () =
  let mvn = Mvn.create ~mus:[| 0.0 |] ~sigmas:[| 1.0 |] ~corr:(C.independent ~n:1) in
  check_raises_invalid "n = 0" (fun () ->
      ignore (I.failure_above mvn (Rng.create ~seed:1) ~n:0 ~threshold:1.0));
  check_raises_invalid "shift dims" (fun () ->
      ignore
        (I.failure_above ~z_shifts:[| [| 1.0; 2.0 |] |] mvn (Rng.create ~seed:1)
           ~n:10 ~threshold:1.0))

(* First [draw_weight] trials from seed 45 on twelve correlated stages
   with the barrier at 125 (seven of twelve fail), as IEEE bits,
   recorded before the sampler was rewritten to reuse scratch
   vectors. *)
let draw_weight_golden =
  [|
    0x3FA18DC427F8BA5DL; 0x3F9744D294EB2766L; 0x0000000000000000L;
    0x0000000000000000L; 0x3F93A365B3A6A6A3L; 0x0000000000000000L;
    0x0000000000000000L; 0x3F6D47FCCB663DA8L; 0x3F904065E9D2243FL;
    0x0000000000000000L; 0x3F72C0980A1DA0CFL; 0x3F60E7E0D9DFE16FL;
  |]

let plan12 () =
  let mvn =
    Mvn.create
      ~mus:(Array.init 12 (fun i -> 100.0 +. float_of_int i))
      ~sigmas:(Array.make 12 5.0) ~corr:(C.uniform ~n:12 ~rho:0.3)
  in
  I.plan mvn ~threshold:125.0

let test_draw_weight_golden () =
  let plan = plan12 () in
  let check name draw =
    Array.iteri
      (fun i e ->
        Alcotest.(check int64)
          (Printf.sprintf "%s trial %d" name i)
          e
          (Int64.bits_of_float (draw ())))
      draw_weight_golden
  in
  let rng = Rng.create ~seed:45 in
  check "draw_weight" (fun () -> I.draw_weight plan rng);
  check "weight_sampler" (I.weight_sampler plan (Rng.create ~seed:45))

let test_weight_sampler_allocation () =
  let draw = I.weight_sampler (plan12 ()) (Rng.create ~seed:47) in
  let words = minor_words_per_call ~n:100_000 draw in
  if words > 4.0 then
    Alcotest.failf "weight_sampler: %.2f minor words per draw (limit 4)" words

let suite =
  [
    slow "single gaussian tails" test_single_gaussian_tail;
    slow "deep tail beyond plain MC" test_deep_tail_beyond_plain_mc;
    slow "unbiased vs plain" test_unbiased_vs_plain_in_easy_regime;
    slow "variance advantage" test_is_variance_advantage;
    quick "effective samples diagnostic" test_effective_samples_diagnostic;
    slow "pipeline integration" test_pipeline_integration;
    slow "highly correlated pipeline" test_highly_correlated_pipeline;
    quick "validation" test_validation;
    quick "draw weight golden stream" test_draw_weight_golden;
    quick "weight sampler allocation per draw" test_weight_sampler_allocation;
  ]
