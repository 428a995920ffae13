type t = {
  n : int;
  cumulative : float array;  (* cumulative.(r) = P(rank <= r); last = 1 *)
}

let create ~n ~s =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if Float.is_nan s || s < 0. then
    invalid_arg "Zipf.create: s must be non-negative";
  let cumulative = Array.make n 0. in
  let total = ref 0. in
  for r = 0 to n - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (r + 1)) s);
    cumulative.(r) <- !total
  done;
  let norm = !total in
  for r = 0 to n - 1 do
    cumulative.(r) <- cumulative.(r) /. norm
  done;
  cumulative.(n - 1) <- 1.;
  { n; cumulative }

let probability t r =
  if r < 0 || r >= t.n then invalid_arg "Zipf.probability: rank out of range";
  if r = 0 then t.cumulative.(0)
  else t.cumulative.(r) -. t.cumulative.(r - 1)

(* First rank whose cumulative mass covers the draw. *)
let sample t rng =
  let u = Rng.float rng 1. in
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.cumulative.(mid) < u then search (mid + 1) hi else search lo mid
    end
  in
  search 0 (t.n - 1)
