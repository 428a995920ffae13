type t = { sorted : float array }

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Cdf.of_samples: empty array";
  { sorted = Stats.sorted_copy xs }

let count t = Array.length t.sorted

let eval t x =
  (* Binary search for the number of samples <= x. *)
  let a = t.sorted in
  let n = Array.length a in
  let rec loop lo hi =
    (* invariant: a.(i) <= x for i < lo; a.(i) > x for i >= hi *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) <= x then loop (mid + 1) hi else loop lo mid
    end
  in
  float_of_int (loop 0 n) /. float_of_int n

let quantile t q =
  let a = t.sorted in
  let n = Array.length a in
  let q = Float.max 0. (Float.min 1. q) in
  let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) idx))

let points ?(max_points = 50) t =
  let a = t.sorted in
  let n = Array.length a in
  let k = min max_points n in
  List.init k (fun i ->
      let idx = (i + 1) * n / k - 1 in
      (a.(idx), float_of_int (idx + 1) /. float_of_int n))

let mean_of t = Stats.mean t.sorted
