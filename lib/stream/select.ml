module Alert = Tivaware_tiv.Alert

type t =
  | Naive of int
  | Coordinate of (int -> int -> float)
  | Alert_aware of { predicted : int -> int -> float; threshold : float }

let flagged_penalty = 1000.

let naive ~seed = Naive seed
let coordinate predicted = Coordinate predicted

let alert ?(threshold = Alert.default_threshold) predicted =
  Alert.validate_threshold "Stream.Select.alert" threshold;
  Alert_aware { predicted; threshold }

let name = function
  | Naive _ -> "naive"
  | Coordinate _ -> "vivaldi"
  | Alert_aware _ -> "alert"

(* SplitMix64 finalizer — the same mixing discipline the lazy backend
   uses for pair seeds, so naive ranking is a pure function of
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

let predictor ?(label = "stream") t engine =
  match t with
  | Naive seed -> fun i j -> hash_score seed i j
  | Coordinate predicted -> predicted
  | Alert_aware { predicted; threshold } ->
      fun i j -> (
        match Alert.alert_pair ~label ~engine ~predicted ~threshold i j with
        | `Clean d -> d
        | `Flagged d -> flagged_penalty *. d
        | `Unmeasurable -> nan)
