module Matrix = Tivaware_delay_space.Matrix

type point = {
  threshold : float;
  alerts : int;
  accuracy : float;
  recall : float;
}

let default_thresholds = List.init 10 (fun i -> 0.1 *. float_of_int (i + 1))

(* Alert quality at one threshold from its counts; an empty alert set
   (or an empty worst set) scores a vacuous 1. *)
let point ~threshold ~alerts ~hits ~worst =
  {
    threshold;
    alerts;
    accuracy =
      (if alerts = 0 then 1. else float_of_int hits /. float_of_int alerts);
    recall = (if worst = 0 then 1. else float_of_int hits /. float_of_int worst);
  }

let evaluate ~ratios ~severity ~worst_fraction ~thresholds =
  let worst = Severity.worst_edges severity ~fraction:worst_fraction in
  let worst_set = Hashtbl.create (Array.length worst) in
  Array.iter (fun (i, j) -> Hashtbl.replace worst_set (i, j) ()) worst;
  let worst_count = Array.length worst in
  List.map
    (fun threshold ->
      let alerts = Alert.alerted ~ratios ~threshold in
      let hits =
        Array.fold_left
          (fun acc e -> if Hashtbl.mem worst_set e then acc + 1 else acc)
          0 alerts
      in
      point ~threshold ~alerts:(Array.length alerts) ~hits ~worst:worst_count)
    thresholds

let f1 p =
  if p.accuracy +. p.recall <= 0. then 0.
  else 2. *. p.accuracy *. p.recall /. (p.accuracy +. p.recall)

(* Alert quality as gauges on the engine's registry: one labelled
   series per swept threshold, plus headline [alert.precision/recall/
   f1] gauges taken from the best-F1 point (deterministic: first wins
   ties in sweep order). *)
let record_obs engine points =
  let module Obs = Tivaware_obs in
  let module Engine = Tivaware_measure.Engine in
  let reg = Engine.obs engine in
  List.iter
    (fun p ->
      let labels = [ ("threshold", Printf.sprintf "%.1f" p.threshold) ] in
      Obs.Gauge.set (Obs.Registry.gauge reg ~labels "alert.precision") p.accuracy;
      Obs.Gauge.set (Obs.Registry.gauge reg ~labels "alert.recall") p.recall;
      Obs.Gauge.set (Obs.Registry.gauge reg ~labels "alert.f1") (f1 p);
      Obs.Gauge.set
        (Obs.Registry.gauge reg ~labels "alert.alerts")
        (float_of_int p.alerts))
    points;
  match points with
  | [] -> ()
  | first :: _ ->
    let best =
      List.fold_left (fun acc p -> if f1 p > f1 acc then p else acc) first points
    in
    Obs.Gauge.set (Obs.Registry.gauge reg "alert.precision") best.accuracy;
    Obs.Gauge.set (Obs.Registry.gauge reg "alert.recall") best.recall;
    Obs.Gauge.set (Obs.Registry.gauge reg "alert.f1") (f1 best);
    Obs.Registry.trace_event reg ~time:(Engine.now engine) ~label:"alert"
      (Printf.sprintf "best threshold=%.1f precision=%.3f recall=%.3f f1=%.3f"
         best.threshold best.accuracy best.recall (f1 best))

let evaluate_engine ~engine ~predicted ~severity ~worst_fraction ~thresholds =
  let ratios = Alert.ratio_matrix_engine ~engine ~predicted in
  let points = evaluate ~ratios ~severity ~worst_fraction ~thresholds in
  record_obs engine points;
  points

(* Sampled alert evaluation for spaces too large to enumerate: ground
   truth is estimated on a uniform pair sample, and each sampled pair's
   severity on a uniform intermediate sample.  Ranking by the estimate
   replaces ranking by the exact severity; the alert rule itself is
   unchanged (measured ratio at or below the threshold). *)
let evaluate_sampled ~engine ~predicted ~pairs ~legs ~worst_fraction
    ~thresholds rng =
  let module Backend = Tivaware_backend.Delay_backend in
  let module Rng = Tivaware_util.Rng in
  let module Engine = Tivaware_measure.Engine in
  if pairs < 1 then invalid_arg "Eval.evaluate_sampled: pairs must be >= 1";
  if legs < 1 then invalid_arg "Eval.evaluate_sampled: legs must be >= 1";
  let backend = Backend.of_engine engine in
  let n = Backend.size backend in
  if n < 3 then invalid_arg "Eval.evaluate_sampled: need at least 3 nodes";
  let seen = Hashtbl.create pairs in
  let samples = ref [] and sampled = ref 0 in
  (* Cap the draw loop so a space of mostly-missing edges terminates. *)
  let attempts = ref 0 in
  let max_attempts = 20 * pairs in
  while !sampled < pairs && !attempts < max_attempts do
    incr attempts;
    let i = Rng.int rng n in
    let j =
      let p = Rng.int rng (n - 1) in
      if p >= i then p + 1 else p
    in
    let key = if i < j then (i, j) else (j, i) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      let dij = Backend.query backend i j in
      if not (Float.is_nan dij) then begin
        (* Severity estimate: mean over sampled intermediates of the
           violating detour ratio — the same statistic the dense sweep
           normalizes by n, so rankings agree in expectation. *)
        let sum = ref 0. in
        for _ = 1 to legs do
          let b = Rng.int rng n in
          if b <> i && b <> j then begin
            let leg =
              Backend.query backend i b +. Backend.query backend j b
            in
            if dij > leg then sum := !sum +. (dij /. leg)
          end
        done;
        let severity = !sum /. float_of_int legs in
        let ratio =
          let d = Engine.rtt ~label:"alert" engine i j in
          if Float.is_nan d || d < 1e-9 then nan else predicted i j /. d
        in
        samples := (severity, ratio) :: !samples;
        incr sampled
      end
    end
  done;
  let samples = Array.of_list (List.rev !samples) in
  let count = Array.length samples in
  let order = Array.init count Fun.id in
  Array.sort
    (fun a b -> compare (fst samples.(b)) (fst samples.(a)))
    order;
  let worst_count =
    min count
      (int_of_float (Float.round (worst_fraction *. float_of_int count)))
  in
  let worst = Array.make count false in
  for r = 0 to worst_count - 1 do
    worst.(order.(r)) <- true
  done;
  let points =
    List.map
      (fun threshold ->
        let alerts = ref 0 and hits = ref 0 in
        Array.iteri
          (fun k (_, ratio) ->
            if (not (Float.is_nan ratio)) && ratio <= threshold then begin
              incr alerts;
              if worst.(k) then incr hits
            end)
          samples;
        point ~threshold ~alerts:!alerts ~hits:!hits ~worst:worst_count)
      thresholds
  in
  record_obs engine points;
  points
