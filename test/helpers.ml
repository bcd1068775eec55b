(* Shared test utilities. *)

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let check_close ?(rel = 1e-6) name expected actual =
  let eps = abs_float expected *. rel in
  Alcotest.(check (float (Float.max eps 1e-12))) name expected actual

let check_in_range name ~lo ~hi actual =
  if actual < lo || actual > hi then
    Alcotest.failf "%s: %g outside [%g, %g]" name actual lo hi

let check_raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Invalid_argument, got %s" name
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Invalid_argument, got a value" name

(* Minor-heap words allocated per call of [draw] over [n] calls, on the
   calling domain.  The accumulator stays a local unboxed float, so
   only what [draw] itself allocates is counted. *)
let minor_words_per_call ~n draw =
  ignore (draw () : float);
  let acc = ref 0.0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc +. draw ()
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  words /. float_of_int n

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let prop ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)
