module Rng = Tivaware_util.Rng
module Sim = Tivaware_eventsim.Sim
module Engine = Tivaware_measure.Engine

type config = {
  probe_period : float;
  jitter : float;
}

let default_config = { probe_period = 1.; jitter = 0.1 }

type stats = {
  probes_sent : int;
  probes_completed : int;
  probes_lost : int;
}

let run ?(config = default_config) sim system ~duration =
  assert (config.probe_period > 0. && config.jitter >= 0. && config.jitter < 1.);
  let n = System.size system in
  let engine = System.engine system in
  let rng = System.rng system in
  let deadline = Sim.now sim +. duration in
  (* Every event first brings the engine clock, and with it the churn
     schedule, to the simulator's, so [Engine.up] is read at the
     instant the event runs.  Per event rather than through
     [Sim.on_advance], so repeated runs on one simulator do not stack
     observers. *)
  let sync () = Engine.advance_to engine (Sim.now sim) in
  let sent = ref 0 and completed = ref 0 and lost = ref 0 in
  (* Nodes a tick of their own found down: they lost their coordinate
     state and restart from a fresh one on their next up tick. *)
  let was_down = Array.make n false in
  let next_gap () =
    let j = config.jitter *. config.probe_period in
    Float.max 1e-3 (config.probe_period +. Rng.uniform rng (-.j) j)
  in
  let rec tick node () =
    if Sim.now sim < deadline then begin
      sync ();
      if not (Engine.up engine node) then was_down.(node) <- true
      else begin
        if was_down.(node) then begin
          was_down.(node) <- false;
          System.reset_node system node
        end;
        let neighbors = System.neighbors system node in
        if Array.length neighbors > 0 then begin
          let peer = Rng.choice rng neighbors in
          match Engine.probe ~label:"vivaldi" engine node peer with
          | Engine.Rtt rtt | Engine.Cached rtt ->
            incr sent;
            (* The response arrives one RTT later (delays are in ms);
               the jittered sample that timed the response is the one
               applied, if both ends are still up when it lands. *)
            Sim.schedule_after sim (rtt /. 1000.) (fun () ->
                sync ();
                if
                  Sim.now sim <= deadline && Engine.up engine node
                  && Engine.up engine peer
                then begin
                  System.observe_rtt system node peer rtt;
                  incr completed
                end
                else incr lost)
          | Engine.Lost | Engine.Down ->
            (* Sent on the wire, no response ever comes back. *)
            incr sent;
            incr lost
          | Engine.Denied | Engine.Unmeasured -> ()
        end
      end;
      Sim.schedule_after sim (next_gap ()) (tick node)
    end
  in
  for node = 0 to n - 1 do
    (* Desynchronized start within the first period. *)
    Sim.schedule_after sim (Rng.float rng config.probe_period) (tick node)
  done;
  Sim.run ~until:deadline sim;
  { probes_sent = !sent; probes_completed = !completed; probes_lost = !lost }
