type t = float array

let zero d = Array.make d 0.
let copy = Array.copy
let dim = Array.length
let scale k a = Array.map (fun x -> k *. x) a

let dot a b =
  assert (dim a = dim b);
  let acc = ref 0. in
  for i = 0 to dim a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm a = sqrt (dot a a)

let[@inline] dist a b =
  assert (dim a = dim b);
  let acc = ref 0. in
  for i = 0 to dim a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let random_unit rng d =
  let v = Array.init d (fun _ -> Rng.gauss rng ~mean:0. ~stddev:1.) in
  let n = norm v in
  if n < 1e-12 then begin
    let v = zero d in
    v.(0) <- 1.;
    v
  end
  else scale (1. /. n) v
