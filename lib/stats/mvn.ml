type t = {
  mus : float array;
  sigmas : float array;
  corr : Correlation.t;
  chol : Matrix.t;
}

let create ~mus ~sigmas ~corr =
  let n = Array.length mus in
  if Array.length sigmas <> n then invalid_arg "Mvn.create: sigmas length mismatch";
  if Matrix.rows corr <> n || Matrix.cols corr <> n then
    invalid_arg "Mvn.create: correlation dimension mismatch";
  Array.iter
    (fun s -> if s < 0.0 then invalid_arg "Mvn.create: negative sigma")
    sigmas;
  let cov =
    Matrix.init ~rows:n ~cols:n (fun i j ->
        Matrix.get corr i j *. sigmas.(i) *. sigmas.(j))
  in
  (* Degenerate covariances (zero sigma, rho = 1) are routine here, so
     use the jitter-tolerant factorisation. *)
  let chol =
    if Array.for_all (fun s -> s = 0.0) sigmas then Matrix.create ~rows:n ~cols:n
    else Matrix.cholesky_psd cov
  in
  { mus = Array.copy mus; sigmas = Array.copy sigmas; corr; chol }

let dim t = Array.length t.mus

(* x = mu + L z, written into [out]; the one copy of the transform
   every sampler below shares. *)
let transform_into t z out =
  Matrix.mat_vec_into t.chol z out;
  for i = 0 to Array.length out - 1 do
    out.(i) <- t.mus.(i) +. out.(i)
  done

let transform t z =
  let n = dim t in
  if Array.length z <> n then invalid_arg "Mvn.transform: dimension mismatch";
  let out = Array.make n 0.0 in
  transform_into t z out;
  out

let whiten t x =
  let n = dim t in
  if Array.length x <> n then invalid_arg "Mvn.whiten: dimension mismatch";
  Matrix.solve_lower t.chol (Array.init n (fun i -> x.(i) -. t.mus.(i)))

let sample t rng =
  let z = Array.make (dim t) 0.0 in
  Rng.fill_gaussian rng z;
  transform t z

let sample_many t rng ~n = Array.init n (fun _ -> sample t rng)

let max_sampler t rng =
  let n = dim t in
  let z = Array.make n 0.0 and x = Array.make n 0.0 in
  fun () ->
    Rng.fill_gaussian rng z;
    transform_into t z x;
    (* [Array.fold_left Float.max neg_infinity x], unboxed. *)
    let m = ref neg_infinity in
    for i = 0 to n - 1 do
      m := Float.max !m x.(i)
    done;
    !m

let sample_max t rng = max_sampler t rng ()

let cholesky_row t i =
  let n = dim t in
  if i < 0 || i >= n then invalid_arg "Mvn.cholesky_row: index out of range";
  Array.init n (fun j -> Matrix.get t.chol i j)

let mean t i = t.mus.(i)
let marginal t i = Gaussian.make ~mu:t.mus.(i) ~sigma:t.sigmas.(i)
let covariance t i j = Matrix.get t.corr i j *. t.sigmas.(i) *. t.sigmas.(j)
