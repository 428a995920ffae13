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

(* Alert: walk candidates by ascending prediction, one verification
   probe each, and stop at the first clean one.  Stable sort keeps
   candidate order on equal predictions, matching the argmin
   tie-break. *)
let alert_walk ~label ~engine ~predicted ~threshold ~client candidates =
  let order = Array.mapi (fun k (_, node) -> (k, predicted client node)) candidates in
  Array.stable_sort
    (fun (_, a) (_, b) ->
      match (Float.is_nan a, Float.is_nan b) with
      | true, true -> 0
      | true, false -> 1  (* unpredicted candidates go last *)
      | false, true -> -1
      | false, false -> compare a b)
    order;
  let probes = ref 0 and skipped = ref 0 in
  let best_flagged = ref None in
  let clean = ref None in
  let k = ref 0 in
  while !clean = None && !k < Array.length order do
    let idx, _ = order.(!k) in
    let device, node = candidates.(idx) in
    incr probes;
    (match Alert.alert_pair ~label ~engine ~predicted ~threshold client node with
    | `Unmeasurable -> ()
    | `Clean d -> clean := Some (device, node, d)
    | `Flagged d -> (
        incr skipped;
        match !best_flagged with
        | Some (_, _, bd) when bd <= d -> ()
        | _ -> best_flagged := Some (device, node, d)));
    incr k
  done;
  Option.map
    (fun (device, node, estimate) ->
      { device; node; estimate; probes = !probes; skipped_flagged = !skipped })
    (match !clean with Some c -> Some c | None -> !best_flagged)

let select ~label t ~engine ~client ~candidates =
  match t with
  | Alert_aware { predicted; threshold } ->
      alert_walk ~label ~engine ~predicted ~threshold ~client candidates
  | Cached _ | Random _ | Coordinate _ | Probe ->
      let probes = ref 0 in
      let rank = ranker ~label t engine probes in
      Option.map
        (fun (i, estimate) ->
          let device, node = candidates.(i) in
          { device; node; estimate; probes = !probes; skipped_flagged = 0 })
        (Tivaware_util.Stats.argmin_index
           (fun i -> rank client (snd candidates.(i)))
           (Array.length candidates))
