type t = {
  edges : float array;
  counts : int array;  (* length = edges + 1; last is overflow *)
  mutable count : int;
  mutable dropped : int;
  mutable sum : float;
}

let create ~edges =
  let n = Array.length edges in
  if n = 0 then invalid_arg "Histogram.create: no bucket edges";
  Array.iteri
    (fun i e ->
      if not (Float.is_finite e) then
        invalid_arg "Histogram.create: edges must be finite";
      if i > 0 && edges.(i - 1) >= e then
        invalid_arg "Histogram.create: edges must be strictly increasing")
    edges;
  {
    edges = Array.copy edges;
    counts = Array.make (n + 1) 0;
    count = 0;
    dropped = 0;
    sum = 0.;
  }

(* First bucket whose upper edge is >= v; [Array.length edges] when v
   exceeds every edge (the overflow bucket). *)
let bucket_of t v =
  let n = Array.length t.edges in
  if v <= t.edges.(0) then 0
  else if v > t.edges.(n - 1) then n
  else begin
    (* Invariant: edges.(lo) < v <= edges.(hi). *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= t.edges.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

let observe t v =
  if Float.is_nan v then t.dropped <- t.dropped + 1
  else begin
    let b = bucket_of t v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.count <- t.count + 1;
    (* Keep the sum finite even for infinite observations. *)
    if Float.is_finite v then t.sum <- t.sum +. v
  end

let count t = t.count
let dropped t = t.dropped

(* Rank-based estimate with linear interpolation inside the bucket:
   the rank q * count is located in the cumulative counts, and the
   bucket's mass is assumed uniformly spread over (lower, upper].
   The first bucket's lower bound is min(0, first edge) — edges are
   positive in practice and observations non-negative; the overflow
   bucket has no upper bound, so it reports the last finite edge (a
   lower bound on the true quantile). *)
let check_q fn q =
  if not (Float.is_finite q) || q < 0. || q > 1. then
    invalid_arg (Printf.sprintf "Histogram.%s: q must be in [0, 1]" fn)

let quantile t q =
  check_q "quantile" q;
  if t.count = 0 then nan
  else begin
    let n = Array.length t.edges in
    let rank = q *. float_of_int t.count in
    let rec locate b cum =
      if b > n then t.edges.(n - 1) (* unreachable: cum reaches count *)
      else begin
        let cum' = cum + t.counts.(b) in
        if float_of_int cum' >= rank && t.counts.(b) > 0 then begin
          if b = n then (* overflow: no upper edge to interpolate to *)
            t.edges.(n - 1)
          else begin
            let lo = if b = 0 then Float.min 0. t.edges.(0) else t.edges.(b - 1) in
            let hi = t.edges.(b) in
            let inside = (rank -. float_of_int cum) /. float_of_int t.counts.(b) in
            lo +. ((hi -. lo) *. Float.max 0. (Float.min 1. inside))
          end
        end
        else locate (b + 1) cum'
      end
    in
    locate 0 0
  end

(* [quantile] lands in the overflow bucket exactly when the finite
   buckets hold less than the rank, or nothing at all (rank 0). *)
let overflowed t q =
  check_q "overflowed" q;
  let finite = t.count - t.counts.(Array.length t.edges) in
  t.count > 0
  && (finite = 0 || float_of_int finite < q *. float_of_int t.count)

let quantile_label ~decimals t q =
  let v = quantile t q in
  if Float.is_nan v then "-"
  else (if overflowed t q then ">" else "") ^ Printf.sprintf "%.*f" decimals v

let sum t = t.sum
let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count
let edges t = Array.copy t.edges
let counts t = Array.copy t.counts

(* Bucket-wise merge: the histogram of the union of both observation
   streams.  Quantiles of the merge are exactly what a single histogram
   over all observations would report, because the estimate only reads
   the bucket counts. *)
let merge a b =
  if a.edges <> b.edges then
    invalid_arg "Histogram.merge: bucket edges differ";
  let m = create ~edges:a.edges in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.count <- a.count + b.count;
  m.dropped <- a.dropped + b.dropped;
  m.sum <- a.sum +. b.sum;
  m
