open Helpers
module Rng = Spv_stats.Rng
module D = Spv_stats.Descriptive

let test_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d equal" i)
      (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 4)

let test_float_range () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let u = Rng.float rng in
    if u < 0.0 || u >= 1.0 then Alcotest.failf "float outside [0,1): %g" u
  done

let test_float_moments () =
  let rng = Rng.create ~seed:2 in
  let xs = Array.init 100_000 (fun _ -> Rng.float rng) in
  check_in_range "mean" ~lo:0.495 ~hi:0.505 (D.mean xs);
  check_in_range "variance" ~lo:0.081 ~hi:0.086 (D.variance xs)

let test_uniform () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let u = Rng.uniform rng ~lo:(-5.0) ~hi:3.0 in
    check_in_range "uniform in range" ~lo:(-5.0) ~hi:3.0 u
  done

let test_int_bounds () =
  let rng = Rng.create ~seed:4 in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let v = Rng.int rng ~bound:7 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c -> check_in_range (Printf.sprintf "bucket %d" i) ~lo:9500. ~hi:10500. (float_of_int c))
    counts

let test_int_chi_square () =
  (* Pearson chi-square over a non-power-of-two range: the rejection
     mask makes every residue exactly equally likely, so the statistic
     must sit in the bulk of chi2(df = 11).  Threshold 35 is the
     ~2e-4 tail — a masked-without-rejection draw over bound 12 biases
     buckets 0..3 by 33% and blows far past it. *)
  let rng = Rng.create ~seed:31 in
  let bound = 12 in
  let draws = 120_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to draws do
    let v = Rng.int rng ~bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int bound in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  check_in_range "chi-square df=11" ~lo:0.0 ~hi:35.0 chi2

let test_int_bound_one () =
  let rng = Rng.create ~seed:37 in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 draws 0" 0 (Rng.int rng ~bound:1)
  done

let test_int_huge_bound () =
  (* Regression: the pre-fix mask loop (mask := mask lsl 1 until >=
     bound) never terminated for bounds above 2^61 because the shift
     wraps through min_int to 0.  The bottom-up all-ones mask stops at
     max_int. *)
  let rng = Rng.create ~seed:41 in
  for _ = 1 to 100 do
    let v = Rng.int rng ~bound:max_int in
    Alcotest.(check bool) "huge bound in range" true (v >= 0 && v < max_int)
  done

let test_gaussian_moments () =
  let rng = Rng.create ~seed:5 in
  let xs = Array.init 200_000 (fun _ -> Rng.gaussian rng) in
  check_in_range "mean" ~lo:(-0.01) ~hi:0.01 (D.mean xs);
  check_in_range "std" ~lo:0.99 ~hi:1.01 (D.std xs);
  check_in_range "skew" ~lo:(-0.03) ~hi:0.03 (D.skewness xs);
  check_in_range "kurtosis" ~lo:(-0.05) ~hi:0.05 (D.kurtosis_excess xs)

let test_gaussian_normality () =
  let rng = Rng.create ~seed:6 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng) in
  let g = Spv_stats.Gaussian.make ~mu:0.0 ~sigma:1.0 in
  let r = Spv_stats.Kstest.against_gaussian xs g in
  check_in_range "KS p-value" ~lo:0.01 ~hi:1.0 r.Spv_stats.Kstest.p_value

let test_gaussian_mu_sigma () =
  let rng = Rng.create ~seed:7 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian_mu_sigma rng ~mu:10.0 ~sigma:3.0) in
  check_in_range "mean" ~lo:9.95 ~hi:10.05 (D.mean xs);
  check_in_range "std" ~lo:2.95 ~hi:3.05 (D.std xs)

let test_split_independence () =
  let parent = Rng.create ~seed:11 in
  let child = (Rng.split parent 1).(0) in
  let xs = Array.init 5000 (fun _ -> Rng.float parent) in
  let ys = Array.init 5000 (fun _ -> Rng.float child) in
  let rho = Spv_stats.Correlation.sample_correlation xs ys in
  check_in_range "split streams uncorrelated" ~lo:(-0.05) ~hi:0.05 rho

let test_split_cross_stream_correlation () =
  (* Every pair of sibling streams must be (statistically) uncorrelated:
     this is what makes shard-parallel Monte-Carlo sound. *)
  let parent = Rng.create ~seed:17 in
  let streams = Rng.split parent 6 in
  let draws =
    Array.map (fun s -> Array.init 4000 (fun _ -> Rng.float s)) streams
  in
  for i = 0 to Array.length draws - 1 do
    for j = i + 1 to Array.length draws - 1 do
      let rho = Spv_stats.Correlation.sample_correlation draws.(i) draws.(j) in
      check_in_range
        (Printf.sprintf "streams %d/%d uncorrelated" i j)
        ~lo:(-0.06) ~hi:0.06 rho
    done
  done

let test_split_determinism () =
  let mk () = Rng.split (Rng.create ~seed:23) 4 in
  let a = mk () and b = mk () in
  Array.iteri
    (fun i sa ->
      for d = 0 to 31 do
        Alcotest.(check int64)
          (Printf.sprintf "stream %d draw %d equal" i d)
          (Rng.bits64 sa) (Rng.bits64 b.(i))
      done)
    a

let test_split_golden () =
  (* Pins the four-independent-draw child derivation (each child state
     word from its own parent draw through splitmix64).  These values
     changed when the old single Int64.to_int 63-bit funnel was
     replaced — any future change to the derivation must update this
     fixture deliberately. *)
  let streams = Rng.split (Rng.create ~seed:23) 4 in
  let expected =
    [| 0x9D597A6DADD0E87CL; 0x3A199AB9E3EB0560L;
    0x7E18F563A69A9510L; 0xC32634F127CBD3B5L |]
  in
  Array.iteri
    (fun i s ->
      Alcotest.(check int64)
        (Printf.sprintf "stream %d first draw" i)
        expected.(i) (Rng.bits64 s))
    streams

(* The first 64 [Rng.gaussian] values (as IEEE bit patterns) from a
   root stream and from a split child, pinned so that any change to the
   generator's state layout or to the polar method must keep every
   draw bit for bit. *)
let gaussian_golden_root =
  [|
    0x3FEF679D98B6AB7BL; 0xBFE21A610C887574L; 0x3FF571F94D19C30AL;
    0x3FD9BF7E7B2C7E67L; 0xBFEEDAE4F6954EF1L; 0x3FD150B492B02CA5L;
    0x3FC91DF36FC7A31DL; 0x3FF2752C5C480A10L; 0x3FC9F8E83E100AC6L;
    0xBFDF0E22E3F6478BL; 0xC001EEA5740E03D7L; 0x3FF105ABE3544717L;
    0x4003A5FB48B98253L; 0xBFF0FCE56BFD47B4L; 0xBFBF5BA6F39917F9L;
    0x3FC0CF734FC84F7BL; 0x4001180EEFF8F5E9L; 0x3FD6DAD666933D25L;
    0x3FD27375729FDBA8L; 0xBFD4DF263DD03553L; 0xBFB988DF59C601D7L;
    0x3FE3663F22596942L; 0x3FB1753A30DF399CL; 0x3FF151EBB1C2AE33L;
    0xBFE63348C9643CD5L; 0x3FCD4C36067DBD80L; 0x3FEF0C3F9FE30C6EL;
    0xBFEF41C5D893EC18L; 0x3FF58065BBB450B0L; 0xBFDBE8B5685AE2EBL;
    0x3FC754C5658BBDF3L; 0x3FF689F5BE1FD2DBL; 0x3FD0EF4BFF3F7CC8L;
    0xBFCFB1D4B415EFF4L; 0xBFEB7B5D002344B9L; 0x40034761ABD359DFL;
    0xBFE21756295DB371L; 0xBFBB544471092034L; 0x3FFDA52C02CFDD81L;
    0x3FF03006486D30D8L; 0x3FE975DA00BF3098L; 0xBFE9974094B3E592L;
    0x3FFB1360E974BB4AL; 0xBFB2146A29393212L; 0xBFCA29DBB15CB67CL;
    0x3FF5A4F2D1FE986DL; 0x3FDC054CB4AF19E8L; 0xBFF1F32A2B0782FEL;
    0x3FE2935A8C75BCF8L; 0xBFE8C0D5EFB0B58CL; 0x3FC67E265562DB52L;
    0xBFE04A009E06F709L; 0x3FB504404B719564L; 0x3FCFBAF13BDA285EL;
    0x3FD710799C9A75F2L; 0x3FBAE73AB401677BL; 0x3FD91DBF505B320FL;
    0x3FF437010C1CCDC7L; 0xBFF41605809796F1L; 0xBFCA1F5103EDE65EL;
    0x3FF9A3F7AA8E8990L; 0xBFF1462D483CAB93L; 0xBFE82177D6472B23L;
    0xBFE056B91A38BEEBL
  |]

let gaussian_golden_child =
  [|
    0x3FCD9EAB4C0131C5L; 0xC00051B81F468347L; 0x3FD3A25A5881589FL;
    0xBFC5EA25ABF97B57L; 0xBFE1A5B1E70ED43FL; 0xC003B8D34EB0FF5EL;
    0xBFE6DFCDDD2660F2L; 0xBFF2A49C45723496L; 0xBFCB496720041EFFL;
    0x3FC3C49EDCA0CFD0L; 0xC003C1D1DD137819L; 0x3FE1F99F72721F6CL;
    0x3FF1A23845F20006L; 0x3FD25147597BE577L; 0x3FE2DA299902555AL;
    0xBFC4BA3C23BC8E7FL; 0x3FDFC4F7D4694146L; 0xBFD41E5DA2FE3C3FL;
    0xBFD94C184F1620E5L; 0xBFE01E15BADA2E19L; 0xBFF2E03BBE8DF0D3L;
    0x3FFC2A55584343B5L; 0x3F4FF1663C99CBABL; 0xBFF07656D95B5B52L;
    0xBFF6C2DF8152ACF5L; 0x3FF445B839C99411L; 0xBFF8572E982DED7BL;
    0x3FDA953965D72EABL; 0xBFF06178EAAA4290L; 0x3FD428DFF3441A38L;
    0xBFD1E682C1B56147L; 0x3FE35BB5EAEAC1C7L; 0xBFEB8944408AD9DCL;
    0x3FC84966462CF5A3L; 0x3FB2D13CE913CBAEL; 0x3FFF1F0F10C353D1L;
    0x3FF912419F904D94L; 0xBFEC02E846E5E3C4L; 0xBFD18A9E306DAB74L;
    0xBFE59874FA3B9FD6L; 0x3FFB92D9A0970AAFL; 0x3FE49D166A9863EFL;
    0xBFE3EB06812DE9FBL; 0x3FD2725E04E7EA98L; 0xBFCBFC7AAE3912CCL;
    0xBFE0D727D97C938EL; 0x3FDA1F517B40F316L; 0x3FD4D09E5CE788E0L;
    0x3FEDF163BB3CC188L; 0xBFED34B624A0D87FL; 0xBFE5E214E3D327B7L;
    0xBFF4E24ABDE708A5L; 0xBFF68C7F964297A8L; 0x3FCE55457A639B2CL;
    0xBFBB9482EAF1C1E4L; 0x3FE1AD40379821F8L; 0x3FE81D70AE82C2C3L;
    0x3FC6D823E0A2D7FBL; 0xBF9473A2C0C1DFA2L; 0x3FF0FBDCD38B5221L;
    0x3FD1EE572E204A69L; 0x3FF68251113FF7ADL; 0xBFEBADC83E3A9307L;
    0xBFF107356C42B052L
  |]

let check_gaussian_golden name rng expected =
  Array.iteri
    (fun i e ->
      Alcotest.(check int64)
        (Printf.sprintf "%s gaussian %d" name i)
        e
        (Int64.bits_of_float (Rng.gaussian rng)))
    expected

let test_gaussian_golden_root () =
  check_gaussian_golden "seed 42" (Rng.create ~seed:42) gaussian_golden_root

let test_gaussian_golden_child () =
  check_gaussian_golden "split 8 child 3"
    (Rng.split (Rng.create ~seed:42) 8).(3)
    gaussian_golden_child

(* [fill_gaussian] and [gaussian] share one polar-method stream:
   odd-length fills leave a value held over for the next scalar call
   and vice versa, so any interleaving must reproduce the scalar-only
   stream bit for bit. *)
let test_fill_gaussian_interleaves_with_scalar () =
  let rng = Rng.create ~seed:42 in
  let got = ref [] in
  let push x = got := x :: !got in
  for k = 0 to 39 do
    (* Mostly odd lengths, so a fill often ends mid-pair; the empty
       fill must leave a pending value alone. *)
    let a = Array.make [| 0; 1; 3; 5; 2; 7; 13 |].(k mod 7) nan in
    Rng.fill_gaussian rng a;
    Array.iter push a;
    push (Rng.gaussian rng);
    if k mod 3 = 0 then push (Rng.gaussian rng)
  done;
  let scalar_only = Rng.create ~seed:42 in
  List.iteri
    (fun i x ->
      Alcotest.(check int64)
        (Printf.sprintf "draw %d" i)
        (Int64.bits_of_float (Rng.gaussian scalar_only))
        (Int64.bits_of_float x))
    (List.rev !got)

let test_fill_gaussian_allocates_nothing () =
  let rng = Rng.create ~seed:43 in
  let a = Array.make 13 0.0 in
  Rng.fill_gaussian rng a;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Rng.fill_gaussian rng a
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 130k draws" 0.0 words

let test_split_rejects_nonpositive () =
  let parent = Rng.create ~seed:29 in
  Alcotest.check_raises "split 0 rejected"
    (Invalid_argument "Rng.split: n <= 0") (fun () ->
      ignore (Rng.split parent 0))

let test_copy () =
  let a = Rng.create ~seed:12 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:13 in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  let sorted = Array.copy b in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" a sorted;
  Alcotest.(check bool) "actually shuffled" true (b <> a)

let suite =
  [
    quick "determinism" test_determinism;
    quick "seed sensitivity" test_seed_sensitivity;
    quick "float in [0,1)" test_float_range;
    slow "uniform moments" test_float_moments;
    quick "uniform range" test_uniform;
    slow "int buckets unbiased" test_int_bounds;
    slow "int chi-square unbiased" test_int_chi_square;
    quick "int bound 1" test_int_bound_one;
    quick "int huge bound terminates" test_int_huge_bound;
    slow "gaussian moments" test_gaussian_moments;
    slow "gaussian KS normality" test_gaussian_normality;
    slow "gaussian mu/sigma" test_gaussian_mu_sigma;
    quick "split independence" test_split_independence;
    slow "split cross-stream correlation" test_split_cross_stream_correlation;
    quick "split determinism" test_split_determinism;
    quick "split golden fixture" test_split_golden;
    quick "gaussian golden fixture (root)" test_gaussian_golden_root;
    quick "gaussian golden fixture (split child)" test_gaussian_golden_child;
    quick "fill_gaussian interleaves with gaussian" test_fill_gaussian_interleaves_with_scalar;
    quick "fill_gaussian allocates nothing" test_fill_gaussian_allocates_nothing;
    quick "split rejects n <= 0" test_split_rejects_nonpositive;
    quick "copy" test_copy;
    quick "shuffle is a permutation" test_shuffle_permutation;
  ]
