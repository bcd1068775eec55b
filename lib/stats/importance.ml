type estimate = {
  probability : float;
  std_error : float;
  effective_samples : float;
}

let summarise values =
  let n = Array.length values in
  let mean = Descriptive.mean values in
  let variance = if n >= 2 then Descriptive.variance values else 0.0 in
  let std_error = sqrt (variance /. float_of_int n) in
  (* Effective sample size of the nonzero weights. *)
  let sum = Array.fold_left ( +. ) 0.0 values in
  let sum_sq = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 values in
  let effective = if sum_sq = 0.0 then 0.0 else sum *. sum /. sum_sq in
  { probability = mean; std_error; effective_samples = effective }

(* One shift per component: the minimal-norm z with component j at the
   barrier (the mode's "design point").  For x_j = mu_j + row_j(L).z,
   the smallest-|z| crossing is z* = row_j(L) (T - mu_j) / sigma_j^2 —
   under correlation it naturally drags the correlated components up
   too, which is exactly the dominant joint failure configuration the
   naive "others stay at their means" shift misses.  Crossing depth is
   capped at 6 sigma so a far barrier keeps a sane proposal. *)
let default_mixture mvn ~threshold =
  let d = Mvn.dim mvn in
  let shifts = ref [] in
  let weights = ref [] in
  for j = 0 to d - 1 do
    let g = Mvn.marginal mvn j in
    let mu = Gaussian.mu g and sigma = Gaussian.sigma g in
    if sigma > 0.0 then begin
      let depth = Float.max 0.0 (Float.min 6.0 ((threshold -. mu) /. sigma)) in
      if depth > 0.0 then begin
        let row = Mvn.cholesky_row mvn j in
        let scale = depth /. sigma in
        shifts := Array.map (fun l -> l *. scale) row :: !shifts;
        (* Marginal exceedance as the mode weight (floored so no mode
           is starved). *)
        let p = 1.0 -. Gaussian.cdf g threshold in
        weights := Float.max p 1e-12 :: !weights
      end
    end
  done;
  match !shifts with
  | [] ->
      (* Every component already sits at or above the barrier: plain
         sampling is fine; use a zero shift. *)
      ([| Array.make d 0.0 |], [| 1.0 |])
  | ss ->
      let shifts = Array.of_list ss in
      let ws = Array.of_list !weights in
      let total = Array.fold_left ( +. ) 0.0 ws in
      (shifts, Array.map (fun w -> w /. total) ws)

(* Squared norm |theta|^2 of each shift, summed left to right. *)
let squared_norms shifts =
  Array.map
    (fun theta ->
      let sq = ref 0.0 in
      for i = 0 to Array.length theta - 1 do
        sq := !sq +. (theta.(i) *. theta.(i))
      done;
      !sq)
    shifts

(* w(z) = phi(z) / sum_j alpha_j phi(z - theta_j)
        = 1 / sum_j alpha_j exp(theta_j . z - |theta_j|^2 / 2),
   with [sqs] the shifts' squared norms. *)
let mixture_weight ~shifts ~sqs ~alphas z =
  let denom = ref 0.0 in
  for j = 0 to Array.length shifts - 1 do
    let theta = shifts.(j) in
    let dot = ref 0.0 in
    for i = 0 to Array.length theta - 1 do
      dot := !dot +. (theta.(i) *. z.(i))
    done;
    denom := !denom +. (alphas.(j) *. exp (!dot -. (sqs.(j) /. 2.0)))
  done;
  if !denom <= 0.0 then 0.0 else 1.0 /. !denom

(* ---- single-trial sampler kernel ------------------------------------ *)

type plan = {
  p_mvn : Mvn.t;
  p_threshold : float;
  p_shifts : float array array;
  p_alphas : float array;
  p_sqs : float array;  (* |theta_j|^2, see [mixture_weight] *)
  p_cumulative : float array;
}

(* Below this whitened-shift norm the proposal is statistically
   indistinguishable from plain sampling (the likelihood ratio stays
   within e^{0.5^2/2} ~ 13% of 1 on typical draws): the target sits in
   the body and mean-shifting buys nothing.  Callers should detect
   this via [max_shift_norm] and fall back to plain Monte-Carlo with
   an explicit marker instead of silently reporting importance-grade
   output (DESIGN §8's importance-at-body contract limit). *)
let body_shift_threshold = 0.5

let plan ?z_shifts ?z_alphas mvn ~threshold =
  let d = Mvn.dim mvn in
  let shifts, alphas =
    match z_shifts with
    | Some ss ->
        if Array.length ss = 0 then
          invalid_arg "Importance.plan: empty shift set";
        Array.iter
          (fun s ->
            if Array.length s <> d then
              invalid_arg "Importance.plan: shift dimension mismatch")
          ss;
        let k = Array.length ss in
        let alphas =
          match z_alphas with
          | None -> Array.make k (1.0 /. float_of_int k)
          | Some ws ->
              if Array.length ws <> k then
                invalid_arg "Importance.plan: alpha/shift length mismatch";
              let total =
                Array.fold_left
                  (fun acc w ->
                    if not (w > 0.0) || not (Float.is_finite w) then
                      invalid_arg
                        "Importance.plan: alphas must be finite positive";
                    acc +. w)
                  0.0 ws
              in
              Array.map (fun w -> w /. total) ws
        in
        (ss, alphas)
    | None ->
        if z_alphas <> None then
          invalid_arg "Importance.plan: z_alphas requires z_shifts";
        default_mixture mvn ~threshold
  in
  let cumulative =
    let acc = ref 0.0 in
    Array.map
      (fun a ->
        acc := !acc +. a;
        !acc)
      alphas
  in
  {
    p_mvn = mvn;
    p_threshold = threshold;
    p_shifts = shifts;
    p_alphas = alphas;
    p_sqs = squared_norms shifts;
    p_cumulative = cumulative;
  }

let max_shift_norm p =
  Array.fold_left (fun acc sq -> Float.max acc (sqrt sq)) 0.0 p.p_sqs

let n_modes p = Array.length p.p_shifts

let weight_sampler p rng =
  let k = Array.length p.p_shifts in
  let d = Mvn.dim p.p_mvn in
  let z = Array.make d 0.0 and x = Array.make d 0.0 in
  fun () ->
    (* Mode pick, then the Gaussians, then the shift, then the
       transform: the stream order every estimate is pinned to. *)
    let u = Rng.float rng in
    let j = ref 0 in
    while !j < k - 1 && not (u < p.p_cumulative.(!j)) do
      incr j
    done;
    let shift = p.p_shifts.(!j) in
    Rng.fill_gaussian rng z;
    for i = 0 to d - 1 do
      z.(i) <- shift.(i) +. z.(i)
    done;
    Mvn.transform_into p.p_mvn z x;
    (* The max is folded here rather than returned from [Mvn], whose
       float result would be boxed on every draw. *)
    let worst = ref neg_infinity in
    for i = 0 to d - 1 do
      worst := Float.max !worst x.(i)
    done;
    if !worst > p.p_threshold then
      mixture_weight ~shifts:p.p_shifts ~sqs:p.p_sqs ~alphas:p.p_alphas z
    else 0.0

let draw_weight p rng = weight_sampler p rng ()

let failure_above ?z_shifts mvn rng ~n ~threshold =
  if n <= 0 then invalid_arg "Importance.failure_above: n <= 0";
  let p = plan ?z_shifts mvn ~threshold in
  let draw = weight_sampler p rng in
  summarise (Array.init n (fun _ -> draw ()))

let plain_failure_above mvn rng ~n ~threshold =
  if n <= 0 then invalid_arg "Importance.plain_failure_above: n <= 0";
  let draw = Mvn.max_sampler mvn rng in
  let values = Array.init n (fun _ -> if draw () > threshold then 1.0 else 0.0) in
  summarise values
