(** Small dense matrices — enough linear algebra for correlated
    Gaussian sampling (Cholesky) and least-squares fits. *)

type t

val create : rows:int -> cols:int -> t
(** Zero matrix. *)

val identity : int -> t
val of_arrays : float array array -> t
(** Row-major copy; all rows must have equal length. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val transpose : t -> t
val mul : t -> t -> t
val mat_vec : t -> float array -> float array

val mat_vec_into : t -> float array -> float array -> unit
(** [mat_vec_into a x out] writes [a x] into [out] without allocating,
    summing each row in the same order as {!mat_vec} (so the results
    are bit-identical).  [out] must have [rows a] entries and must not
    be [x]. *)

val scale : t -> float -> t
val add : t -> t -> t

val is_symmetric : ?eps:float -> t -> bool

val cholesky : t -> t
(** Lower-triangular [l] with [l * l^T = a] for a symmetric positive
    definite [a].  Raises [Failure] if [a] is not (numerically)
    positive definite. *)

val cholesky_psd : ?jitter:float -> t -> t
(** Cholesky that tolerates positive *semi*-definite inputs (needed for
    perfectly-correlated stage delays, rho = 1) by adding a tiny
    diagonal jitter on failure. *)

val sym_eig : ?max_sweeps:int -> t -> float array * t
(** Eigendecomposition of a symmetric matrix by cyclic Jacobi
    rotations: [(lambda, v)] with [a = v * diag lambda * v^T] and the
    i-th eigenvector in column i of [v].  Eigenvalues are unsorted.
    Raises [Invalid_argument] for a non-square or non-symmetric
    input. *)

val solve_lower : t -> float array -> float array
(** Forward substitution [l x = b] with lower-triangular [l]. *)

val solve_upper : t -> float array -> float array
(** Back substitution [u x = b] with upper-triangular [u]. *)

val solve_spd : t -> float array -> float array
(** Solve [a x = b] for symmetric positive definite [a] via Cholesky. *)

val least_squares : t -> float array -> float array
(** Minimise ||a x - b|| via normal equations (small systems only). *)

val pp : Format.formatter -> t -> unit
