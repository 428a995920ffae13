module Rng = Tivaware_util.Rng
module Engine = Tivaware_measure.Engine
module Obs = Tivaware_obs
module Alert = Tivaware_tiv.Alert

type schedule = {
  rounds_per_iteration : int;
  iterations : int;
}

let refresh_label = "vivaldi-neighbors"

(* Rank candidates by probed prediction ratio and keep the [keep]
   largest: small ratios are shrunk edges, the likely severe-TIV ones. *)
let select_best system node candidates keep =
  let engine = System.engine system and predicted = System.predictor system in
  let scored =
    List.filter_map
      (fun j ->
        let r = Alert.probed_ratio ~label:refresh_label ~engine ~predicted node j in
        (* Unmeasured candidates are unusable as probing neighbors. *)
        if Float.is_nan r then None else Some (j, r))
      candidates
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) scored in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | (j, _) :: rest -> j :: take (k - 1) rest
  in
  Array.of_list (take keep sorted)

let refresh_neighbors system =
  let n = System.size system in
  let rng = System.rng system in
  for i = 0 to n - 1 do
    let current = System.neighbors system i in
    let want = Array.length current in
    if want > 0 && n > want + 1 then begin
      (* Sample a fresh batch of candidates, excluding self; duplicates
         with the current set collapse naturally via the seen table. *)
      let seen = Hashtbl.create (4 * want) in
      Array.iter (fun j -> Hashtbl.replace seen j ()) current;
      let fresh = ref [] and fresh_count = ref 0 and attempts = ref 0 in
      while !fresh_count < want && !attempts < 20 * want do
        incr attempts;
        let j = Rng.int rng n in
        if j <> i && not (Hashtbl.mem seen j) then begin
          Hashtbl.replace seen j ();
          fresh := j :: !fresh;
          incr fresh_count
        end
      done;
      let pool = Array.to_list current @ !fresh in
      let best = select_best system i pool want in
      if Array.length best = want then System.set_neighbors system i best
    end
  done

let run ?(on_iteration = fun _ _ -> ()) system schedule =
  for k = 1 to schedule.iterations do
    System.run system ~rounds:schedule.rounds_per_iteration;
    refresh_neighbors system;
    on_iteration k system
  done

type repair = {
  evicted : int;
  resampled : int;
}

(* Churn-aware neighbor repair: every live node re-probes its current
   neighbors through the system's engine and drops the ones that answer
   nothing, then samples fresh candidates until the set is full again —
   accepting only candidates that answer a probe.  Every liveness check
   is a real probe (charged, budgeted, accounted under [label]), so
   repair traffic shows up in the measurement plane like any other. *)
let repair_neighbors ?(label = "vivaldi-repair") system =
  let n = System.size system in
  let engine = System.engine system in
  let rng = System.rng system in
  let evicted = ref 0 and resampled = ref 0 in
  for i = 0 to n - 1 do
    (* A node that is itself down runs no maintenance. *)
    if Engine.up engine i then begin
      let current = System.neighbors system i in
      let want = Array.length current in
      if want > 0 then begin
        let seen = Hashtbl.create (4 * want) in
        Array.iter (fun j -> Hashtbl.replace seen j ()) current;
        let alive =
          List.filter
            (fun j -> not (Float.is_nan (Engine.rtt ~label engine i j)))
            (Array.to_list current)
        in
        evicted := !evicted + (want - List.length alive);
        let fresh = ref [] in
        let missing = ref (want - List.length alive) in
        let attempts = ref 0 in
        while !missing > 0 && !attempts < 20 * want do
          incr attempts;
          let j = Rng.int rng n in
          if j <> i && not (Hashtbl.mem seen j) then begin
            Hashtbl.replace seen j ();
            if not (Float.is_nan (Engine.rtt ~label engine i j)) then begin
              fresh := j :: !fresh;
              incr resampled;
              decr missing
            end
          end
        done;
        let repaired = Array.of_list (alive @ List.rev !fresh) in
        if Array.length repaired > 0 && repaired <> current then
          System.set_neighbors system i repaired
      end
    end
  done;
  let reg = Engine.obs engine in
  let labels = [ ("plane", "vivaldi") ] in
  Obs.Counter.add (Obs.Registry.counter reg ~labels "repair.evicted")
    (float_of_int !evicted);
  Obs.Counter.add (Obs.Registry.counter reg ~labels "repair.resampled")
    (float_of_int !resampled);
  Obs.Registry.trace_event reg ~time:(Engine.now engine) ~label:"repair.vivaldi"
    (Printf.sprintf "evicted=%d resampled=%d" !evicted !resampled);
  { evicted = !evicted; resampled = !resampled }
