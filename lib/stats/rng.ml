(* The whole generator lives in one [Bytes.t]:

     bytes  0..31  the four xoshiro256++ state words s0..s3
     bytes 32..39  the IEEE bits of the held-over polar-method value
     byte  40      1 when that value is pending, 0 otherwise

   Reading and writing the words through [Bytes.get/set_int64_ne]
   keeps every intermediate Int64 unboxed, where [mutable int64]
   record fields box on every store.  A draw allocates nothing, so a
   sampling loop over this state never triggers a minor collection
   (which in OCaml 5 stops every domain). *)
type t = Bytes.t

let off_spare = 32
let off_has_spare = 40
let size = 41

(* splitmix64: used only to expand the user seed into 256 bits of
   well-mixed state, as recommended by the xoshiro authors. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_words s0 s1 s2 s3 =
  let t = Bytes.make size '\000' in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 s2;
  Bytes.set_int64_ne t 24 s3;
  t

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1' = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1';
  Bytes.set_int64_ne t 16 (logxor s2 (shift_left s1 17));
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let bits64 t = next t

let split t n =
  if n <= 0 then invalid_arg "Rng.split: n <= 0";
  (* Each child state word comes from its own 64-bit parent draw mixed
     through one splitmix64 step, so children receive 256 independent
     parent bits.  (An earlier version funnelled the whole child state
     through a single Int64.to_int seed, silently dropping the top bit
     and collapsing the keyspace to 63 bits.) *)
  Array.init n (fun _ ->
      let word () = splitmix64 (ref (next t)) in
      let s0 = word () in
      let s1 = word () in
      let s2 = word () in
      let s3 = word () in
      if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
        (* xoshiro forbids the all-zero state; unreachable in practice
           (probability 2^-256) but cheap to rule out. *)
        create ~seed:1
      else of_words s0 s1 s2 s3)

(* 53 high bits scaled into [0,1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11)
  *. (1.0 /. 9007199254740992.0)

let float t = unit_float t

let uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. unit_float t)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling to avoid modulo bias: draw under the smallest
     all-ones mask covering [bound - 1] and reject overshoots.  The
     mask is grown as (2^k - 1) values directly — the earlier
     power-of-two loop [mask lsl 1] wrapped negative for bounds above
     2^61 and never terminated.  [grow] cannot overflow: it stops at
     max_int (all 62 value bits set), which covers every valid bound. *)
  let rec grow m = if m >= bound - 1 then m else grow ((m lsl 1) lor 1) in
  let mask = if bound = 1 then 0 else grow 1 in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (next t) 0x7FFFFFFFFFFFFFFFL) land mask in
    if v < bound then v else draw ()
  in
  draw ()

let fill_gaussian t a =
  let n = Array.length a in
  let i = ref 0 in
  if n > 0 && Bytes.unsafe_get t off_has_spare <> '\000' then begin
    Bytes.unsafe_set t off_has_spare '\000';
    a.(0) <- Int64.float_of_bits (Bytes.get_int64_ne t off_spare);
    i := 1
  end;
  while !i < n do
    (* Marsaglia polar method: both values of an accepted pair are
       used, the second held over when the array ends first. *)
    let u = ref 0.0 and v = ref 0.0 and s = ref 0.0 in
    while
      u := (2.0 *. unit_float t) -. 1.0;
      v := (2.0 *. unit_float t) -. 1.0;
      s := (!u *. !u) +. (!v *. !v);
      !s >= 1.0 || !s = 0.0
    do
      ()
    done;
    let m = sqrt (-2.0 *. log !s /. !s) in
    a.(!i) <- !u *. m;
    if !i + 1 < n then a.(!i + 1) <- !v *. m
    else begin
      Bytes.set_int64_ne t off_spare (Int64.bits_of_float (!v *. m));
      Bytes.unsafe_set t off_has_spare '\001'
    end;
    i := !i + 2
  done

let gaussian t =
  let a = [| 0.0 |] in
  fill_gaussian t a;
  a.(0)

let gaussian_mu_sigma t ~mu ~sigma =
  assert (sigma >= 0.0);
  mu +. (sigma *. gaussian t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
