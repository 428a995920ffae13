type t = { mutable v : float }

let create () = { v = 0. }

let set t x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Gauge.set: value must be finite (got %g)" x);
  t.v <- x

let value t = t.v
