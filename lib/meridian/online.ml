module Sim = Tivaware_eventsim.Sim
module Engine = Tivaware_measure.Engine
module Obs = Tivaware_obs

let latency_edges = [| 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000. |]

(* Event-driven query accounting: same [meridian.*] series as the
   synchronous {!Query} driver, plus the end-to-end client latency the
   simulator observed.  A failed query ([chosen_delay = nan]) increments
   the failure counter instead of silently vanishing into the mean. *)
let record_online engine outcome =
  let reg = Engine.obs engine in
  if Float.is_nan outcome.Query.chosen_delay then begin
    Obs.Counter.incr (Obs.Registry.counter reg "meridian.query_failures");
    Obs.Registry.trace_event reg ~time:(Engine.now engine) ~label:"meridian"
      (Printf.sprintf "online query failed at start=%d after %d probes"
         outcome.Query.chosen outcome.Query.probes)
  end
  else
    Obs.Histogram.observe
      (Obs.Registry.histogram reg ~edges:Query.hop_edges "meridian.query_hops")
      (float_of_int outcome.Query.hops)

type outcome = {
  query : Query.outcome;
  latency : float;
}

(* Engine clocks run in logical seconds; the Online simulator runs in
   ms (the RTT unit). *)
let attach sim engine =
  Sim.on_advance sim (fun t_ms -> Engine.advance_to engine (t_ms /. 1000.))

(* The protocol is a sequential chain of timed phases; we model it with
   events that each schedule the next phase.  Message transit rides the
   engine's ground-truth backend (the network does not care what the
   measurement plane charges): a one-way hand-off costs RTT / 2.  Every
   *probe* goes through the engine and its cost — delivered RTT,
   timeouts, backoff delays — is charged on the simulator clock at the
   point the probing node issues it. *)
let closest ?(termination = Query.Threshold) sim overlay engine ~client
    ~start ~target =
  if not (Overlay.is_meridian overlay start) then
    invalid_arg "Online.closest: start is not a Meridian node";
  let backend = Tivaware_backend.Delay_backend.of_engine engine in
  if Float.is_nan (Tivaware_backend.Delay_backend.query backend client start)
  then
    invalid_arg "Online.closest: no measurement between client and start";
  (* One-way transit on the ground-truth path; missing edges transit
     instantaneously, as in {!closest}. *)
  let transit a b =
    let r = Tivaware_backend.Delay_backend.query backend a b in
    if Float.is_nan r then 0. else r
  in
  let beta = (Overlay.config overlay).Ring.beta in
  let st = Query.make_probe_state engine ~target in
  let visited = Hashtbl.create 16 in
  let send_time = Sim.now sim in
  let finished = ref None in
  let path = ref [] and hops = ref 0 in
  let finish () =
    let best, best_delay = Query.best_seen st in
    (* Under loss every probe of a hop can fail, leaving no best node;
       the failure answer returns to the client instantaneously and
       reads [chosen_delay = nan], exactly like {!Query.closest}
       (not the probe state's untouched [infinity]). *)
    let back = if best < 0 then 0. else transit client best /. 2. in
    Sim.schedule_after sim back (fun () ->
        finished :=
          Some
            {
              query =
                {
                  Query.chosen = (if best < 0 then start else best);
                  chosen_delay = (if best < 0 then nan else best_delay);
                  probes = Query.probe_count st;
                  hops = !hops;
                  restarts = 0;
                  path = List.rev !path;
                };
              latency = Sim.now sim -. send_time;
            })
  in
  let rec arrive_at node =
    Hashtbl.replace visited node ();
    path := node :: !path;
    (* The node probes the target on arrival; the query only proceeds
       once the probe resolves — including the timeouts and backoff a
       lost probe burns before failing. *)
    let d, cost = Query.probe_timed st node in
    if Float.is_nan d then Sim.schedule_after sim cost finish
    else Sim.schedule_after sim cost (fun () -> fan_out node d)
  and fan_out node d =
    let members = Query.eligible_members overlay node d in
    let pending = ref 0 in
    let reports = ref [] in
    let conclude () =
      let candidate =
        List.fold_left
          (fun acc (id, delay) ->
            if Float.is_nan delay || Hashtbl.mem visited id then acc
            else begin
              match acc with
              | Some (_, bd) when bd <= delay -> acc
              | _ -> Some (id, delay)
            end)
          None !reports
      in
      match candidate with
      | Some (next, cd)
        when Query.accepts termination ~beta ~d ~candidate_delay:cd ->
        incr hops;
        Sim.schedule_after sim (transit node next /. 2.) (fun () ->
            arrive_at next)
      | _ -> finish ()
    in
    if members = [] then conclude ()
    else begin
      List.iter
        (fun m ->
          let id = m.Overlay.id in
          incr pending;
          (* Request reaches the member after half an RTT; the member
             probes the target on arrival and reports back half an RTT
             after its probe resolves. *)
          Sim.schedule_after sim
            (transit node id /. 2.)
            (fun () ->
              let delay, cost = Query.probe_timed st id in
              Sim.schedule_after sim
                (cost +. (transit node id /. 2.))
                (fun () ->
                  reports := (id, delay) :: !reports;
                  decr pending;
                  if !pending = 0 then conclude ())))
        members
    end
  in
  Sim.schedule_after sim (transit client start /. 2.) (fun () -> arrive_at start);
  Sim.run sim;
  match !finished with
  | Some outcome ->
    record_online engine outcome.query;
    Obs.Histogram.observe
      (Obs.Registry.histogram (Engine.obs engine) ~edges:latency_edges
         "meridian.query_latency_ms")
      outcome.latency;
    outcome
  | None -> assert false
