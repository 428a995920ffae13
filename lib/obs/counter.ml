type t = { mutable v : float }

let create () = { v = 0. }
let incr t = t.v <- t.v +. 1.

let add t d =
  if not (Float.is_finite d) || d < 0. then
    invalid_arg (Printf.sprintf "Counter.add: delta must be finite and >= 0 (got %g)" d);
  t.v <- t.v +. d

let value t = t.v
let count t = int_of_float t.v
