let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let percentile_sorted xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile_sorted: empty array";
  if p <= 0. then xs.(0)
  else if p >= 100. then xs.(n - 1)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    xs.(lo) +. (frac *. (xs.(hi) -. xs.(lo)))
  end

let percentile xs p = percentile_sorted (sorted_copy xs) p

let median xs = percentile xs 50.

(* The pick rule's one comparison: cost [c] displaces [best], the best
   cost so far ([nan] while there is none), when it is a number below
   it. *)
let[@inline] improves c best =
  (not (Float.is_nan c)) && (Float.is_nan best || c < best)

(* [best] is the list cell whose head is the best candidate so far, so
   an improvement allocates nothing. *)
let argmin cost xs =
  let rec go best best_cost = function
    | x :: rest as cell ->
      let c = cost x in
      if improves c best_cost then go cell c rest else go best best_cost rest
    | [] -> (
      match best with
      | x :: _ when not (Float.is_nan best_cost) -> Some (x, best_cost)
      | _ -> None)
  in
  go xs Float.nan xs

let argmin_index cost n =
  let best = ref (-1) and best_cost = ref Float.nan in
  for i = 0 to n - 1 do
    let c = cost i in
    if improves c !best_cost then begin
      best := i;
      best_cost := c
    end
  done;
  if !best < 0 then None else Some (!best, !best_cost)

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p10 : float;
  p50 : float;
  p90 : float;
  max : float;
}

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty array";
  let sorted = sorted_copy xs in
  let n = Array.length sorted in
  {
    count = n;
    mean = mean xs;
    stddev = stddev xs;
    min = sorted.(0);
    p10 = percentile_sorted sorted 10.;
    p50 = percentile_sorted sorted 50.;
    p90 = percentile_sorted sorted 90.;
    max = sorted.(n - 1);
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.3f sd=%.3f min=%.3f p10=%.3f p50=%.3f p90=%.3f max=%.3f"
    s.count s.mean s.stddev s.min s.p10 s.p50 s.p90 s.max
