module Sim = Tivaware_eventsim.Sim
module Engine = Tivaware_measure.Engine
module Obs = Tivaware_obs

let latency_edges = [| 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000. |]

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
  let w = Query.walk ~termination overlay engine ~start ~target in
  let send_time = Sim.now sim in
  let finished = ref None in
  let finish () =
    let query = Query.finish w in
    (* A failed query's answer returns to the client instantaneously. *)
    let back =
      if Float.is_nan query.Query.chosen_delay then 0.
      else transit client query.Query.chosen /. 2.
    in
    Sim.schedule_after sim back (fun () ->
        finished := Some { query; latency = Sim.now sim -. send_time })
  in
  (* The node probes the target on arrival; the query only proceeds
     once the probe resolves — including the timeouts and backoff a lost
     probe burns before failing. *)
  let rec arrive_at node =
    let d, cost = Query.arrive w node in
    Sim.schedule_after sim cost
      (if Float.is_nan d then finish else fun () -> fan_out node)
  and fan_out node =
    (* Every eligible member, visited ones included, gets the request;
       the hop is decided once the slowest report is back. *)
    let conclude () =
      match Query.step w with
      | Some next ->
        Sim.schedule_after sim (transit node next /. 2.) (fun () ->
            arrive_at next)
      | None -> finish ()
    in
    match Query.window w with
    | [] -> conclude ()
    | members ->
      let pending = ref (List.length members) in
      List.iter
        (fun m ->
          let id = m.Overlay.id in
          (* Request reaches the member after half an RTT; the member
             probes the target on arrival and reports back half an RTT
             after its probe resolves. *)
          Sim.schedule_after sim
            (transit node id /. 2.)
            (fun () ->
              let _, cost = Query.probe w id in
              Sim.schedule_after sim
                (cost +. (transit node id /. 2.))
                (fun () ->
                  decr pending;
                  if !pending = 0 then conclude ())))
        members
  in
  Sim.schedule_after sim (transit client start /. 2.) (fun () -> arrive_at start);
  Sim.run sim;
  match !finished with
  | Some outcome ->
    Obs.Histogram.observe
      (Obs.Registry.histogram (Engine.obs engine) ~edges:latency_edges
         "meridian.query_latency_ms")
      outcome.latency;
    outcome
  | None -> assert false
