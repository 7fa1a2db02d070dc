(** Spectral gap and the paper's theory-bound arithmetic, shared by the
    experiment harness and the CLI. *)

(** How λ was obtained; carried along so experiment reports can say so. *)
type method_ = Power | Lanczos_method | Closed_form of string

type t = {
  lambda : float;  (** λ = max(|λ₂|, |λ_n|) *)
  gap : float;  (** 1 - λ *)
  method_ : method_;
}

(** [estimate ?steps rng g] computes λ for a connected regular graph by
    power iteration cross-checked against a Lanczos sweep; the two must
    agree within [5e-4], else the tighter Lanczos value is used and
    [method_] is [Lanczos_method] ({!pp} prints it). *)
val estimate : ?steps:int -> Prng.Rng.t -> Graph.View.t -> t

(** [of_lambda ?method_ lambda] wraps an externally known λ. *)
val of_lambda : ?method_:method_ -> float -> t

(** [theorem1_bound ~n t] is [log n / gap³] — the paper's T for Theorems 1
    and 2 (up to the hidden constant). *)
val theorem1_bound : n:int -> t -> float

(** [satisfies_gap_condition ~n t] checks the paper's premise
    [1 - λ >> sqrt (log n / n)]; returns the ratio
    [gap / sqrt (log n / n)] (values well above 1 satisfy it). *)
val satisfies_gap_condition : n:int -> t -> float

(** [growth_factor ~n t ~a] is Lemma 1's per-step expected growth lower
    bound [1 + (1 - λ²)(1 - a/n)] for an infected set of size [a]. *)
val growth_factor : n:int -> t -> a:int -> float

(** [mixing_time_upper ~n ?eps t] is the standard upper bound
    [ln(n/eps) / (1 - λ)] on the lazy-walk ε-mixing time (default
    [eps = 1e-2]) — context for how COBRA's O(log n / gap³) compares to
    single-walk mixing on the same graph. *)
val mixing_time_upper : n:int -> ?eps:float -> t -> float

(** [pp_method] and [pp] printers. *)
val pp_method : Format.formatter -> method_ -> unit

val pp : Format.formatter -> t -> unit
