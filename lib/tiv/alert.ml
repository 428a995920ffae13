module Matrix = Tivaware_delay_space.Matrix
module Engine = Tivaware_measure.Engine
module Backend = Tivaware_backend.Delay_backend

let ratio ~predicted i j measured =
  if Float.is_nan measured || measured < 1e-9 then nan
  else predicted i j /. measured

let probed_ratio ~label ~engine ~predicted i j =
  ratio ~predicted i j (Engine.rtt ~label engine i j)

let shrunk ~threshold r = (not (Float.is_nan r)) && r <= threshold

let ratio_matrix ~measured ~predicted = Matrix.map (ratio ~predicted) measured

(* Measurement-plane ratio matrix: the measured delay of every known
   edge is re-probed through the engine, so lost probes leave the edge
   unalertable and jitter perturbs the ratio. *)
let ratio_matrix_engine ~engine ~predicted =
  match Backend.matrix (Backend.of_engine engine) with
  | None -> invalid_arg "Alert.ratio_matrix_engine: engine is not matrix-backed"
  | Some truth ->
    Matrix.map
      (fun i j _ -> probed_ratio ~label:"alert" ~engine ~predicted i j)
      truth

let ratio_severity_pairs ~ratios ~severity =
  let out = ref [] in
  Matrix.iter_edges ratios (fun i j r ->
      if Matrix.known severity i j then
        out := (r, Matrix.get severity i j) :: !out);
  Array.of_list (List.rev !out)

let alerted ~ratios ~threshold =
  let out = ref [] in
  Matrix.iter_edges ratios (fun i j r ->
      if shrunk ~threshold r then out := (i, j) :: !out);
  Array.of_list (List.rev !out)

(* Selection ranks by the probed delay, so this verdict applies [ratio]
   to its probe itself: [probed_ratio] returns the ratio alone, and
   returning both would allocate on every selection probe. *)
let alert_pair ?(label = "alert") ~engine ~predicted ~threshold i j =
  let d = Engine.rtt ~label engine i j in
  if Float.is_nan d then `Unmeasurable
  else if shrunk ~threshold (ratio ~predicted i j d) then `Flagged d
  else `Clean d
