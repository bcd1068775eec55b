open Helpers
module Mvn = Spv_stats.Mvn
module D = Spv_stats.Descriptive

let test_validation () =
  check_raises_invalid "sigma length" (fun () ->
      Mvn.create ~mus:[| 0.0; 0.0 |] ~sigmas:[| 1.0 |]
        ~corr:(Spv_stats.Correlation.independent ~n:2));
  check_raises_invalid "negative sigma" (fun () ->
      Mvn.create ~mus:[| 0.0 |] ~sigmas:[| -1.0 |]
        ~corr:(Spv_stats.Correlation.independent ~n:1))

let test_marginals () =
  let mvn =
    Mvn.create ~mus:[| 1.0; 2.0 |] ~sigmas:[| 0.5; 1.5 |]
      ~corr:(Spv_stats.Correlation.uniform ~n:2 ~rho:0.3)
  in
  Alcotest.(check int) "dim" 2 (Mvn.dim mvn);
  check_float "mean 1" 2.0 (Mvn.mean mvn 1);
  let g = Mvn.marginal mvn 0 in
  check_float "marginal sigma" 0.5 (Spv_stats.Gaussian.sigma g);
  check_close ~rel:1e-12 "covariance" (0.3 *. 0.5 *. 1.5) (Mvn.covariance mvn 0 1)

let test_sample_moments () =
  let rho = 0.7 in
  let mvn =
    Mvn.create ~mus:[| 10.0; -5.0 |] ~sigmas:[| 2.0; 3.0 |]
      ~corr:(Spv_stats.Correlation.uniform ~n:2 ~rho)
  in
  let rng = Spv_stats.Rng.create ~seed:60 in
  let draws = Mvn.sample_many mvn rng ~n:50_000 in
  let xs = Array.map (fun d -> d.(0)) draws in
  let ys = Array.map (fun d -> d.(1)) draws in
  check_in_range "mean x" ~lo:9.97 ~hi:10.03 (D.mean xs);
  check_in_range "mean y" ~lo:(-5.05) ~hi:(-4.95) (D.mean ys);
  check_in_range "std x" ~lo:1.97 ~hi:2.03 (D.std xs);
  check_in_range "std y" ~lo:2.95 ~hi:3.05 (D.std ys);
  check_in_range "rho" ~lo:0.68 ~hi:0.72
    (Spv_stats.Correlation.sample_correlation xs ys)

let test_perfect_correlation () =
  let mvn =
    Mvn.create ~mus:[| 0.0; 10.0 |] ~sigmas:[| 1.0; 1.0 |]
      ~corr:(Spv_stats.Correlation.perfectly_correlated ~n:2)
  in
  let rng = Spv_stats.Rng.create ~seed:61 in
  for _ = 1 to 100 do
    let d = Mvn.sample mvn rng in
    (* Same underlying draw shifted by the mean difference. *)
    check_float ~eps:1e-4 "rho=1 locks components" (d.(0) +. 10.0) d.(1)
  done

let test_zero_sigma () =
  let mvn =
    Mvn.create ~mus:[| 5.0; 1.0 |] ~sigmas:[| 0.0; 0.0 |]
      ~corr:(Spv_stats.Correlation.independent ~n:2)
  in
  let rng = Spv_stats.Rng.create ~seed:62 in
  let d = Mvn.sample mvn rng in
  check_float "deterministic x" 5.0 d.(0);
  check_float "deterministic y" 1.0 d.(1);
  check_float "max" 5.0 (Mvn.sample_max mvn rng)

let test_sample_max () =
  let mvn =
    Mvn.create ~mus:[| 0.0; 0.0; 100.0 |] ~sigmas:[| 1.0; 1.0; 1.0 |]
      ~corr:(Spv_stats.Correlation.independent ~n:3)
  in
  let rng = Spv_stats.Rng.create ~seed:63 in
  let m = Mvn.sample_max mvn rng in
  check_in_range "dominated max" ~lo:90.0 ~hi:110.0 m

(* Twelve correlated stages (rho = 0.3): the engine's moments-only
   benchmark shape. *)
let mvn12 () =
  Mvn.create
    ~mus:(Array.init 12 (fun i -> 100.0 +. float_of_int i))
    ~sigmas:(Array.make 12 5.0)
    ~corr:(Spv_stats.Correlation.uniform ~n:12 ~rho:0.3)

(* First [sample_max] draws from seed 44, as IEEE bits, recorded
   before the sampler was rewritten to reuse scratch vectors. *)
let sample_max_golden =
  [|
    0x405D6C7DDD20F5B8L; 0x405CD1285727714BL; 0x405AC2AB59BCF924L;
    0x405D233317F7E037L; 0x405D93FB312762C7L; 0x405C6ED37C0CE973L;
    0x405C0669986CBAE0L; 0x405C62780F9F0FB7L; 0x405B6EBF410FED68L;
    0x405AA0E1300DE102L; 0x405C7DA85E0587EAL; 0x405E7B08F148F992L;
  |]

let check_golden name expected draw =
  Array.iteri
    (fun i e ->
      Alcotest.(check int64)
        (Printf.sprintf "%s draw %d" name i)
        e
        (Int64.bits_of_float (draw ())))
    expected

let test_sample_max_golden () =
  let mvn = mvn12 () in
  let rng = Spv_stats.Rng.create ~seed:44 in
  check_golden "sample_max" sample_max_golden (fun () -> Mvn.sample_max mvn rng);
  check_golden "max_sampler" sample_max_golden
    (Mvn.max_sampler mvn (Spv_stats.Rng.create ~seed:44));
  (* the scalar path through [sample] folds to the same maxima *)
  let rng = Spv_stats.Rng.create ~seed:44 in
  check_golden "fold over sample" sample_max_golden (fun () ->
      Array.fold_left Float.max neg_infinity (Mvn.sample mvn rng))

let test_max_sampler_allocation () =
  let draw = Mvn.max_sampler (mvn12 ()) (Spv_stats.Rng.create ~seed:46) in
  let words = minor_words_per_call ~n:100_000 draw in
  if words > 4.0 then
    Alcotest.failf "max_sampler: %.2f minor words per trial (limit 4)" words

let suite =
  [
    quick "validation" test_validation;
    quick "marginals" test_marginals;
    slow "sample moments" test_sample_moments;
    quick "perfect correlation" test_perfect_correlation;
    quick "zero sigma degenerate" test_zero_sigma;
    quick "sample max" test_sample_max;
    quick "sample max golden stream" test_sample_max_golden;
    quick "max sampler allocation per trial" test_max_sampler_allocation;
  ]
