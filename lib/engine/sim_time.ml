type t = int

let zero = 0

let of_us n =
  if n < 0 then invalid_arg "Sim_time.of_us: negative duration";
  n

let of_ms n = of_us (n * 1_000)
let of_sec n = of_us (n * 1_000_000)

(* Rounds half up from the floor: for a non-negative [x], [x - floor x] is
   exact, so this is [Float.round]'s half-away-from-zero, bit for bit,
   with no C call in the way of inlining into the per-tick callers. *)
let[@inline] of_sec_f s =
  if Float.is_nan s || s < 0.0 then invalid_arg "Sim_time.of_sec_f: negative";
  let x = s *. 1e6 in
  let r = floor x in
  int_of_float (if x -. r >= 0.5 then r +. 1.0 else r)

let to_us t = t
let[@inline] to_ms t = float_of_int t /. 1e3
let[@inline] to_sec t = float_of_int t /. 1e6
let add a b = a + b

let sub a b =
  if a < b then invalid_arg "Sim_time.sub: negative result";
  a - b

let diff a b = abs (a - b)
let ( + ) = add
let ( - ) = sub
let compare = Int.compare
let equal = Int.equal
let min = Stdlib.min
let max = Stdlib.max

let pp ppf t =
  if t >= 1_000_000 then Format.fprintf ppf "%.3fs" (to_sec t)
  else if t >= 1_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else Format.fprintf ppf "%dus" t

let to_string t = Format.asprintf "%a" pp t
