module Engine = Tivaware_measure.Engine

type t =
  | Cached of (int * int, float) Hashtbl.t
  | Random of int
  | Coordinate of (int -> int -> float)
  | Probe
  | Alert_aware of { predicted : int -> int -> float; threshold : float }

let default_threshold = 0.5
let flagged_penalty = 1000.

let cached () = Cached (Hashtbl.create 256)
let random ~seed = Random seed
let coordinate predicted = Coordinate predicted
let probe () = Probe

let alert ?(threshold = default_threshold) predicted =
  if not (Float.is_finite threshold) || threshold <= 0. then
    invalid_arg
      (Printf.sprintf
         "Selection.alert: threshold must be positive and finite (got %g)"
         threshold);
  Alert_aware { predicted; threshold }

(* SplitMix64 finalizer — the same mixing discipline the lazy backend
   uses for pair seeds, so random ranking is a pure function of
   (seed, i, j): no RNG state, no path dependence. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let hash_score seed i j =
  let z = mix64 (Int64.add (mix64 (Int64.of_int seed)) (Int64.of_int (i + 1))) in
  let z = mix64 (Int64.add z (Int64.of_int (j + 1))) in
  let bits = Int64.to_int (Int64.shift_right_logical z 11) in
  (* 53 uniform bits onto (0, 1): never 0, so a score is always a
     usable (non-nan, positive) rank. *)
  (float_of_int bits +. 1.) *. (1. /. 9007199254740993.)

(* The ranking function, counting every engine call into [probes].
   [i] is the selecting node (client, joiner), [j] the candidate. *)
let ranker ~label t engine probes =
  let rtt i j =
    incr probes;
    Engine.rtt ~label engine i j
  in
  match t with
  | Cached cache -> (
      fun i j ->
        match Hashtbl.find_opt cache (i, j) with
        | Some e -> e
        | None ->
            let d = rtt i j in
            if not (Float.is_nan d) then Hashtbl.replace cache (i, j) d;
            d)
  | Random seed -> hash_score seed
  | Coordinate predicted -> predicted
  (* Meridian-style measurement probes from the candidate's side. *)
  | Probe -> fun i j -> rtt j i
  | Alert_aware { predicted; threshold } -> (
      fun i j ->
        incr probes;
        match Alert.alert_pair ~label ~engine ~predicted ~threshold i j with
        | `Clean d -> d
        | `Flagged d -> flagged_penalty *. d
        | `Unmeasurable -> nan)

let rank ~label t engine = ranker ~label t engine (ref 0)

type choice = {
  device : int;
  node : int;
  estimate : float;
  probes : int;
  skipped_flagged : int;
}

(* [a] sorts strictly after [b]: ascending, unpredicted ([nan]) last. *)
let sorts_after a b = (not (Float.is_nan b)) && (Float.is_nan a || a > b)

(* Alert: walk candidates by ascending prediction, one verification
   probe each, and stop at the first clean one.  The order is a stable
   insertion sort, so equal predictions keep candidate order, matching
   the argmin tie-break.  The verdict is [Alert.flagged] on the probed
   delay, as in [Alert.alert_pair], without boxing it in a variant. *)
let alert_walk ~label ~engine ~predicted ~threshold ~client candidates len =
  let order = Array.make len 0 and keys = Array.make len nan in
  for k = 0 to len - 1 do
    let key = predicted client (snd candidates.(k)) in
    let j = ref k in
    while !j > 0 && sorts_after keys.(!j - 1) key do
      keys.(!j) <- keys.(!j - 1);
      order.(!j) <- order.(!j - 1);
      decr j
    done;
    keys.(!j) <- key;
    order.(!j) <- k
  done;
  let skipped = ref 0 in
  (* The first clean candidate, else the first flagged one with the
     smallest measured delay ([nan] never flags). *)
  let clean = ref (-1) and clean_d = ref nan in
  let best_flagged = ref (-1) and best_flagged_d = ref nan in
  let walked = ref 0 in
  while !clean < 0 && !walked < len do
    let idx = order.(!walked) in
    let node = snd candidates.(idx) in
    let d = Engine.rtt ~label engine client node in
    if Alert.flagged ~threshold ~predicted client node d then begin
      incr skipped;
      if !best_flagged < 0 || d < !best_flagged_d then begin
        best_flagged := idx;
        best_flagged_d := d
      end
    end
    else if not (Float.is_nan d) then begin
      clean := idx;
      clean_d := d
    end;
    incr walked
  done;
  let idx = if !clean >= 0 then !clean else !best_flagged in
  if idx < 0 then None
  else
    let device, node = candidates.(idx) in
    let estimate = if !clean >= 0 then !clean_d else !best_flagged_d in
    Some { device; node; estimate; probes = !walked; skipped_flagged = !skipped }

let select ~label t ~engine ~client ~candidates ~len =
  match t with
  | Alert_aware { predicted; threshold } ->
      alert_walk ~label ~engine ~predicted ~threshold ~client candidates len
  | Cached _ | Random _ | Coordinate _ | Probe ->
      let probes = ref 0 in
      let rank = ranker ~label t engine probes in
      Option.map
        (fun (i, estimate) ->
          let device, node = candidates.(i) in
          { device; node; estimate; probes = !probes; skipped_flagged = 0 })
        (Tivaware_util.Stats.argmin_index (fun i -> rank client (snd candidates.(i))) len)
