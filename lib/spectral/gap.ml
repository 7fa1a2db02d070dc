type method_ = Power | Lanczos_method | Closed_form of string

type t = { lambda : float; gap : float; method_ : method_ }

let of_lambda ?(method_ = Closed_form "given") lambda =
  { lambda; gap = 1.0 -. lambda; method_ }

let estimate ?steps rng g =
  let from_power = Power.lambda_max rng g in
  let from_lanczos = Lanczos.lambda_max ?steps rng g in
  if Float.abs (from_power -. from_lanczos) > 5e-4 then
    { lambda = from_lanczos; gap = 1.0 -. from_lanczos; method_ = Lanczos_method }
  else { lambda = from_power; gap = 1.0 -. from_power; method_ = Power }

let theorem1_bound ~n t =
  if n < 2 then invalid_arg "Gap.theorem1_bound: n >= 2";
  if t.gap <= 0.0 then infinity
  else log (Float.of_int n) /. (t.gap ** 3.0)

let satisfies_gap_condition ~n t =
  if n < 2 then invalid_arg "Gap.satisfies_gap_condition: n >= 2";
  t.gap /. sqrt (log (Float.of_int n) /. Float.of_int n)

let growth_factor ~n t ~a =
  1.0 +. ((1.0 -. (t.lambda *. t.lambda)) *. (1.0 -. (Float.of_int a /. Float.of_int n)))

let mixing_time_upper ~n ?(eps = 1e-2) t =
  if n < 2 then invalid_arg "Gap.mixing_time_upper: n >= 2";
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Gap.mixing_time_upper: eps in (0,1)";
  if t.gap <= 0.0 then infinity else log (Float.of_int n /. eps) /. t.gap

let pp_method ppf = function
  | Power -> Format.pp_print_string ppf "power-iteration"
  | Lanczos_method -> Format.pp_print_string ppf "lanczos"
  | Closed_form s -> Format.fprintf ppf "closed-form(%s)" s

let pp ppf t =
  Format.fprintf ppf "lambda=%.6f gap=%.6f (%a)" t.lambda t.gap pp_method t.method_
