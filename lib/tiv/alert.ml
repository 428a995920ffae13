module Matrix = Tivaware_delay_space.Matrix
module Engine = Tivaware_measure.Engine

let ratio ~predicted i j measured =
  if Float.is_nan measured || measured < 1e-9 then nan
  else predicted i j /. measured

let ratio_matrix ~measured ~predicted = Matrix.map (ratio ~predicted) measured

(* Measurement-plane ratio matrix: the measured delay of every known
   edge is re-probed through the engine, so lost probes leave the edge
   unalertable and jitter perturbs the ratio. *)
let ratio_matrix_engine ~engine ~predicted =
  let truth = Engine.matrix_exn engine in
  Matrix.map
    (fun i j _ -> ratio ~predicted i j (Engine.rtt ~label:"alert" engine i j))
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
      if r <= threshold then out := (i, j) :: !out);
  Array.of_list (List.rev !out)

let is_alert ~ratios ~threshold i j =
  Matrix.known ratios i j && Matrix.get ratios i j <= threshold

(* Per-pair alert check: the building block of Selection.  Unlike
   [ratio_matrix_engine] it needs no dense matrix — one verification
   probe per call, so it works over lazy delay backends too. *)
let alert_pair ?(label = "alert") ~engine ~predicted ~threshold i j =
  let d = Engine.rtt ~label engine i j in
  if Float.is_nan d then `Unmeasurable
  else if ratio ~predicted i j d <= threshold then `Flagged d
  else `Clean d
