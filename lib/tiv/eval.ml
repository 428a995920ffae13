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

(* Alert quality of a sample of edges: edge [k] has prediction ratio
   [ratios.(k)] and is in the worst set iff [in_worst.(k)]; [worst] is
   the worst set's size.  One point per threshold.  An indexed loop
   reads the ratios unboxed. *)
let score ~(ratios : float array) ~in_worst ~worst thresholds =
  List.map
    (fun threshold ->
      let alerts = ref 0 and hits = ref 0 in
      for k = 0 to Array.length ratios - 1 do
        if Alert.shrunk ~threshold ratios.(k) then begin
          incr alerts;
          if in_worst.(k) then incr hits
        end
      done;
      point ~threshold ~alerts:!alerts ~hits:!hits ~worst)
    thresholds

let evaluate ~ratios ~severity ~worst_fraction ~thresholds =
  let worst = Severity.worst_edges severity ~fraction:worst_fraction in
  let worst_set = Hashtbl.create (Array.length worst) in
  Array.iter (fun (i, j) -> Hashtbl.replace worst_set (i, j) ()) worst;
  let edges = Matrix.edges ratios in
  score
    ~ratios:(Array.map (fun (_, _, r) -> r) edges)
    ~in_worst:(Array.map (fun (i, j, _) -> Hashtbl.mem worst_set (i, j)) edges)
    ~worst:(Array.length worst) thresholds

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
   unchanged (probed ratio at or below the threshold). *)
let evaluate_sampled ~engine ~predicted ~pairs ~legs ~worst_fraction
    ~thresholds rng =
  let module Backend = Tivaware_backend.Delay_backend in
  let module Rng = Tivaware_util.Rng in
  if pairs < 1 then invalid_arg "Eval.evaluate_sampled: pairs must be >= 1";
  if legs < 1 then invalid_arg "Eval.evaluate_sampled: legs must be >= 1";
  let backend = Backend.of_engine engine in
  let n = Backend.size backend in
  if n < 3 then invalid_arg "Eval.evaluate_sampled: need at least 3 nodes";
  let seen = Hashtbl.create pairs in
  let severities = Array.make pairs nan and ratios = Array.make pairs nan in
  let count = ref 0 in
  (* Cap the draw loop so a space of mostly-missing edges terminates. *)
  let attempts = ref 0 in
  let max_attempts = 20 * pairs in
  while !count < pairs && !attempts < max_attempts do
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
        severities.(!count) <- !sum /. float_of_int legs;
        ratios.(!count) <-
          Alert.probed_ratio ~label:"alert" ~engine ~predicted i j;
        incr count
      end
    end
  done;
  let count = !count in
  let order = Array.init count Fun.id in
  Array.sort (fun a b -> Float.compare severities.(b) severities.(a)) order;
  let worst =
    min count
      (int_of_float (Float.round (worst_fraction *. float_of_int count)))
  in
  let in_worst = Array.make count false in
  for r = 0 to worst - 1 do
    in_worst.(order.(r)) <- true
  done;
  let points =
    score ~ratios:(Array.sub ratios 0 count) ~in_worst ~worst thresholds
  in
  record_obs engine points;
  points
