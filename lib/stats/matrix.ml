type t = { r : int; c : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: non-positive dims";
  { r = rows; c = cols; data = Array.make (rows * cols) 0.0 }

let rows t = t.r
let cols t = t.c
let get t i j = t.data.((i * t.c) + j)
let set t i j v = t.data.((i * t.c) + j) <- v

let init ~rows ~cols f =
  let m = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length a.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> cols then invalid_arg "Matrix.of_arrays: ragged")
    a;
  init ~rows ~cols (fun i j -> a.(i).(j))

let copy t = { t with data = Array.copy t.data }
let transpose t = init ~rows:t.c ~cols:t.r (fun i j -> get t j i)

let mul a b =
  if a.c <> b.r then invalid_arg "Matrix.mul: dimension mismatch";
  init ~rows:a.r ~cols:b.c (fun i j ->
      let acc = ref 0.0 in
      for k = 0 to a.c - 1 do
        acc := !acc +. (get a i k *. get b k j)
      done;
      !acc)

let mat_vec_into a x out =
  if a.c <> Array.length x || a.r <> Array.length out then
    invalid_arg "Matrix.mat_vec: dimension mismatch";
  if x == out then invalid_arg "Matrix.mat_vec_into: output aliases input";
  let c = a.c and data = a.data in
  (* Each row is summed left to right in its own accumulator, as in a
     one-row-at-a-time loop, so results are bit-identical to it.  Four
     rows share a pass over [x] so their dependent add chains overlap
     instead of each waiting on the previous add's latency. *)
  let i = ref 0 in
  while !i + 3 < a.r do
    let r0 = !i * c in
    let r1 = r0 + c in
    let r2 = r1 + c in
    let r3 = r2 + c in
    let acc0 = ref 0.0 and acc1 = ref 0.0 in
    let acc2 = ref 0.0 and acc3 = ref 0.0 in
    for j = 0 to c - 1 do
      let xj = x.(j) in
      acc0 := !acc0 +. (data.(r0 + j) *. xj);
      acc1 := !acc1 +. (data.(r1 + j) *. xj);
      acc2 := !acc2 +. (data.(r2 + j) *. xj);
      acc3 := !acc3 +. (data.(r3 + j) *. xj)
    done;
    out.(!i) <- !acc0;
    out.(!i + 1) <- !acc1;
    out.(!i + 2) <- !acc2;
    out.(!i + 3) <- !acc3;
    i := !i + 4
  done;
  while !i < a.r do
    let r0 = !i * c in
    let acc = ref 0.0 in
    for j = 0 to c - 1 do
      acc := !acc +. (data.(r0 + j) *. x.(j))
    done;
    out.(!i) <- !acc;
    incr i
  done

let mat_vec a x =
  let out = Array.make a.r 0.0 in
  mat_vec_into a x out;
  out

let scale a k = init ~rows:a.r ~cols:a.c (fun i j -> k *. get a i j)

let add a b =
  if a.r <> b.r || a.c <> b.c then invalid_arg "Matrix.add: dimension mismatch";
  init ~rows:a.r ~cols:a.c (fun i j -> get a i j +. get b i j)

let is_symmetric ?(eps = 1e-10) t =
  t.r = t.c
  &&
  let ok = ref true in
  for i = 0 to t.r - 1 do
    for j = i + 1 to t.c - 1 do
      if abs_float (get t i j -. get t j i) > eps then ok := false
    done
  done;
  !ok

let cholesky a =
  if a.r <> a.c then invalid_arg "Matrix.cholesky: not square";
  let n = a.r in
  let l = create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (get a i j) in
      for k = 0 to j - 1 do
        s := !s -. (get l i k *. get l j k)
      done;
      if i = j then begin
        if !s <= 0.0 then failwith "Matrix.cholesky: not positive definite";
        set l i j (sqrt !s)
      end
      else set l i j (!s /. get l j j)
    done
  done;
  l

let cholesky_psd ?(jitter = 1e-10) a =
  try cholesky a
  with Failure _ ->
    let n = a.r in
    (* Scale the jitter to the largest diagonal entry so it stays
       negligible relative to the actual variances. *)
    let dmax = ref 0.0 in
    for i = 0 to n - 1 do
      dmax := Float.max !dmax (abs_float (get a i i))
    done;
    (* Only a genuinely semi-definite matrix should pass: cap the
       total jitter at 1e-6 of the diagonal scale so an indefinite
       input still fails. *)
    let rec attempt eps tries =
      if tries = 0 then failwith "Matrix.cholesky_psd: not PSD even with jitter"
      else
        let bumped =
          init ~rows:n ~cols:n (fun i j ->
              if i = j then get a i j +. eps else get a i j)
        in
        try cholesky bumped with Failure _ -> attempt (eps *. 100.0) (tries - 1)
    in
    attempt (jitter *. Float.max !dmax 1.0) 3

let sym_eig ?(max_sweeps = 64) a =
  if a.r <> a.c then invalid_arg "Matrix.sym_eig: not square";
  if not (is_symmetric ~eps:1e-8 a) then
    invalid_arg "Matrix.sym_eig: not symmetric";
  let n = a.r in
  let m = copy a in
  let v = identity n in
  (* Cyclic Jacobi: rotate away each off-diagonal entry in turn until
     the off-diagonal mass is negligible against the diagonal. *)
  let off_norm () =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        s := !s +. (2.0 *. get m i j *. get m i j)
      done
    done;
    sqrt !s
  in
  let diag_scale () =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := Float.max !s (abs_float (get m i i))
    done;
    Float.max !s 1.0
  in
  let sweep = ref 0 in
  while !sweep < max_sweeps && off_norm () > 1e-12 *. diag_scale () do
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = get m p q in
        if abs_float apq > 1e-300 then begin
          let app = get m p p and aqq = get m q q in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let sign = if theta >= 0.0 then 1.0 else -1.0 in
            sign /. (abs_float theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          for k = 0 to n - 1 do
            let mkp = get m k p and mkq = get m k q in
            set m k p ((c *. mkp) -. (s *. mkq));
            set m k q ((s *. mkp) +. (c *. mkq))
          done;
          for k = 0 to n - 1 do
            let mpk = get m p k and mqk = get m q k in
            set m p k ((c *. mpk) -. (s *. mqk));
            set m q k ((s *. mpk) +. (c *. mqk))
          done;
          for k = 0 to n - 1 do
            let vkp = get v k p and vkq = get v k q in
            set v k p ((c *. vkp) -. (s *. vkq));
            set v k q ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done;
    incr sweep
  done;
  (Array.init n (fun i -> get m i i), v)

let solve_lower l b =
  let n = l.r in
  if Array.length b <> n then invalid_arg "Matrix.solve_lower: bad rhs";
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for j = 0 to i - 1 do
      s := !s -. (get l i j *. x.(j))
    done;
    x.(i) <- !s /. get l i i
  done;
  x

let solve_upper u b =
  let n = u.r in
  if Array.length b <> n then invalid_arg "Matrix.solve_upper: bad rhs";
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref b.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (get u i j *. x.(j))
    done;
    x.(i) <- !s /. get u i i
  done;
  x

let solve_spd a b =
  let l = cholesky a in
  solve_upper (transpose l) (solve_lower l b)

let least_squares a b =
  let at = transpose a in
  let ata = mul at a in
  let atb = mat_vec at b in
  solve_spd ata atb

let pp fmt t =
  for i = 0 to t.r - 1 do
    for j = 0 to t.c - 1 do
      Format.fprintf fmt "%10.4g " (get t i j)
    done;
    Format.pp_print_newline fmt ()
  done
