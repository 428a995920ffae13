module Rng = Tivaware_util.Rng
module Engine = Tivaware_measure.Engine
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Profile = Tivaware_measure.Profile
module Arbiter = Tivaware_measure.Arbiter
module Backend = Tivaware_backend.Delay_backend
module Sim = Tivaware_eventsim.Sim
module Multicast = Tivaware_overlay.Multicast
module Obs = Tivaware_obs
module Selection = Tivaware_tiv.Selection

type config = {
  members : int;
  chunk_ms : float;
  deadline_ms : float;
  buffer_chunks : int;
  pull_interval : float;
  repair_interval : float;
  max_degree : int;
  duration : float;
  seed : int;
}

let default_config =
  {
    members = 48;
    chunk_ms = 400.;
    deadline_ms = 800.;
    buffer_chunks = 16;
    pull_interval = 2.;
    repair_interval = 5.;
    max_degree = 4;
    duration = 120.;
    seed = 7;
  }

let validate_config ctx c =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if c.members < 2 then fail "%s: members must be >= 2 (got %d)" ctx c.members;
  if not (Float.is_finite c.chunk_ms) || c.chunk_ms <= 0. then
    fail "%s: chunk_ms must be positive (got %g)" ctx c.chunk_ms;
  if not (Float.is_finite c.deadline_ms) || c.deadline_ms <= 0. then
    fail "%s: deadline_ms must be positive (got %g)" ctx c.deadline_ms;
  if c.buffer_chunks < 1 then
    fail "%s: buffer_chunks must be >= 1 (got %d)" ctx c.buffer_chunks;
  if not (Float.is_finite c.pull_interval) || c.pull_interval <= 0. then
    fail "%s: pull_interval must be positive (got %g)" ctx c.pull_interval;
  if Float.is_nan c.repair_interval || c.repair_interval < 0. then
    fail "%s: repair_interval must be >= 0 (got %g)" ctx c.repair_interval;
  if c.max_degree < 1 then
    fail "%s: max_degree must be >= 1 (got %d)" ctx c.max_degree;
  if not (Float.is_finite c.duration) || c.duration <= 0. then
    fail "%s: duration must be positive (got %g)" ctx c.duration;
  (* Every member is judged (and holds a receive slot) per chunk and
     pulls once per round; repair passes run until the last deadline. *)
  let members = float_of_int c.members and deadline = c.deadline_ms /. 1000. in
  let span = c.duration +. deadline in
  let passes = if c.repair_interval > 0. then span /. c.repair_interval else 0. in
  Sim.check_work ctx
    [
      ("duration", c.duration *. 1000. /. c.chunk_ms *. members);
      ( (if deadline > c.duration then "deadline_ms" else "duration"),
        (span /. c.pull_interval *. members) +. passes );
    ]

(* The run's only tally of its outcomes: [run] reads its result from
   these. *)
type instruments = {
  c_emitted : Obs.Counter.t;
  c_delivered : Obs.Counter.t;
  c_duplicates : Obs.Counter.t;
  c_lost_down : Obs.Counter.t;
  c_transfer_failures : Obs.Counter.t;
  c_pull_exchanges : Obs.Counter.t;
  c_pull_failures : Obs.Counter.t;
  c_pull_requests : Obs.Counter.t;
  c_pull_hits : Obs.Counter.t;
  c_on_time : Obs.Counter.t;
  c_missed : Obs.Counter.t;
  c_down_at_deadline : Obs.Counter.t;
  c_stretch_dropped : Obs.Counter.t;
  c_repair_denied : Obs.Counter.t;
  h_receive_ms : Obs.Histogram.t;
  h_stretch : Obs.Histogram.t;
}

let receive_ms_edges = [| 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000. |]
let stretch_edges = [| 0.5; 1.; 1.5; 2.; 3.; 5.; 10.; 20.; 50.; 100. |]

let make_instruments obs =
  {
    c_emitted = Obs.Registry.counter obs "stream.chunks_emitted";
    c_delivered = Obs.Registry.counter obs "stream.deliveries";
    c_duplicates = Obs.Registry.counter obs "stream.duplicates";
    c_lost_down = Obs.Registry.counter obs "stream.lost_down";
    c_transfer_failures = Obs.Registry.counter obs "stream.transfer_failures";
    c_pull_exchanges = Obs.Registry.counter obs "stream.pull_exchanges";
    c_pull_failures = Obs.Registry.counter obs "stream.pull_failures";
    c_pull_requests = Obs.Registry.counter obs "stream.pull_requests";
    c_pull_hits = Obs.Registry.counter obs "stream.pull_hits";
    c_on_time = Obs.Registry.counter obs "stream.on_time";
    c_missed = Obs.Registry.counter obs "stream.missed";
    c_down_at_deadline = Obs.Registry.counter obs "stream.down_at_deadline";
    c_stretch_dropped = Obs.Registry.counter obs "stream.stretch_dropped";
    c_repair_denied = Obs.Registry.counter obs "stream.repair_denied";
    h_receive_ms = Obs.Registry.histogram obs ~edges:receive_ms_edges "stream.receive_ms";
    h_stretch = Obs.Registry.histogram obs ~edges:stretch_edges "stream.stretch";
  }

type t = {
  config : config;
  backend : Backend.t;
  engine : Engine.t;
  arbiter : Arbiter.t option;
  tree : Multicast.t;
  nodes : int array;  (* member node ids, ascending *)
  src_idx : int;  (* index of the source in [nodes] *)
  idx_of : (int, int) Hashtbl.t;  (* node id -> member index *)
  chunks : int;
  recv : float array array;  (* member index x chunk -> receive time (s), nan = not held *)
  repair_rng : Rng.t;
  repair_predict : int -> int -> float;
  inst : instruments;
  mutable stretches : float list;  (* exact samples; the histogram is bucketed *)
  mutable repair_passes : int;
}

let source t = t.nodes.(t.src_idx)
let tree t = t.tree

let up engine node =
  match Engine.churn engine with Some c -> Churn.is_up c node | None -> true

(* What a chunk transfer on (i, j) costs right now: the backend's base
   delay plus whatever extra delay the dynamics plane currently imposes
   (route flaps, detours) — the same "what the wire does today" rule
   the store scenario charges its reads. *)
let link t i j =
  let base = Backend.query t.backend i j in
  if Float.is_nan base then nan
  else
    match Engine.dynamics t.engine with
    | Some d -> base +. (Dynamics.link d i j).Profile.extra_delay
    | None -> base

let create ?arbiter ~config ~select ~backend ~engine () =
  validate_config "Stream.Swarm" config;
  let n = Backend.size backend in
  if config.members > n then
    invalid_arg
      (Printf.sprintf "Stream.Swarm: members (%d) exceeds delay-space nodes (%d)"
         config.members n);
  let rng = Rng.create ((config.seed * 0x9e37) + 0xa3) in
  let nodes =
    if config.members = n then Array.init n Fun.id
    else Rng.sample_indices rng ~n ~k:config.members
  in
  Array.sort compare nodes;
  (* The broadcaster must not churn away mid-stream: the repair
     contract covers member failure, not root failure.  Pick the first
     sampled node outside the churning subset (fall back to the first
     sample when everyone churns). *)
  let src_idx =
    match Engine.churn engine with
    | None -> 0
    | Some c -> (
        let found = ref None in
        Array.iteri
          (fun k node ->
            if !found = None && not (Churn.churning c node) then found := Some k)
          nodes;
        match !found with Some k -> k | None -> 0)
  in
  let idx_of = Hashtbl.create (2 * config.members) in
  Array.iteri (fun k node -> Hashtbl.replace idx_of node k) nodes;
  let join_order =
    let rest =
      Array.of_list
        (List.filter (( <> ) nodes.(src_idx)) (Array.to_list nodes))
    in
    Rng.shuffle rng rest;
    Array.append [| nodes.(src_idx) |] rest
  in
  Engine.register_plane engine "stream";
  Engine.register_plane engine "stream_repair";
  let mc_config =
    { Multicast.default_config with Multicast.max_degree = config.max_degree }
  in
  let tree =
    Multicast.build ~config:mc_config ~label:"stream"
      ~predict:(Selection.rank ~label:"stream" select engine)
      engine ~join_order
  in
  let chunks =
    max 1 (int_of_float (config.duration *. 1000. /. config.chunk_ms))
  in
  {
    config;
    backend;
    engine;
    arbiter;
    tree;
    nodes;
    src_idx;
    idx_of;
    chunks;
    recv = Array.init config.members (fun _ -> Array.make chunks nan);
    repair_rng = Rng.create ((config.seed * 0x9e37) + 0xb7);
    repair_predict = Selection.rank ~label:"stream_repair" select engine;
    inst = make_instruments (Engine.obs engine);
    stretches = [];
    repair_passes = 0;
  }

type repair_totals = {
  passes : int;
  denied : int;
  detached : int;
  reattached : int;
  rejoined : int;
}

type result = {
  members : int;
  joined : int;
  chunks : int;
  on_time : int;
  missed : int;
  down_at_deadline : int;
  miss_rate : float;
  deliveries : int;
  duplicates : int;
  transfer_failures : int;
  lost_down : int;
  pull_exchanges : int;
  pull_failures : int;
  pull_requests : int;
  pull_hits : int;
  overhead_ratio : float;
  stretches : float array;
  repair : repair_totals;
  tree_metrics : Multicast.metrics;
}

let has t midx k = not (Float.is_nan t.recv.(midx).(k))

(* Push dissemination: whoever holds a fresh chunk forwards it to its
   current tree children, each copy arriving one link delay later.
   The child set is read at forwarding time, so re-grafted subtrees
   start receiving from their new parent immediately. *)
let rec forward t sim midx k now =
  let node = t.nodes.(midx) in
  List.iter
    (fun child ->
      let d = link t node child in
      if Float.is_nan d then
        Obs.Counter.incr t.inst.c_transfer_failures
      else
        let cidx = Hashtbl.find t.idx_of child in
        Sim.schedule_at sim (now +. (d /. 1000.)) (fun () ->
            deliver t sim cidx k (Sim.now sim)))
    (Multicast.children t.tree node)

and deliver t sim cidx k now =
  if not (up t.engine t.nodes.(cidx)) then
    Obs.Counter.incr t.inst.c_lost_down
  else if has t cidx k then
    Obs.Counter.incr t.inst.c_duplicates
  else begin
    t.recv.(cidx).(k) <- now;
    Obs.Counter.incr t.inst.c_delivered;
    forward t sim cidx k now
  end

(* Pull recovery: each live member exchanges a have-map with its parent
   (one control probe on the "stream" plane) and requests every chunk
   in the buffer window it lacks; requested chunks the parent holds
   arrive one control round-trip plus one link delay later. *)
let pull_pass t sim now =
  let c = t.config in
  let k_now =
    min (t.chunks - 1) (int_of_float (now *. 1000. /. c.chunk_ms))
  in
  let lo = max 0 (k_now - c.buffer_chunks + 1) in
  Array.iteri
    (fun midx node ->
      if midx <> t.src_idx && up t.engine node then
        match Multicast.parent t.tree node with
        | None -> ()  (* detached: repair re-grafts, pull resumes after *)
        | Some p ->
            let missing = ref [] in
            for k = k_now downto lo do
              if not (has t midx k) then missing := k :: !missing
            done;
            if !missing <> [] then begin
              Obs.Counter.incr t.inst.c_pull_exchanges;
              let rtt = Engine.rtt ~label:"stream" t.engine node p in
              if Float.is_nan rtt then
                Obs.Counter.incr t.inst.c_pull_failures
              else
                let pidx = Hashtbl.find t.idx_of p in
                List.iter
                  (fun k ->
                    Obs.Counter.incr t.inst.c_pull_requests;
                    if has t pidx k && t.recv.(pidx).(k) <= now then begin
                      Obs.Counter.incr t.inst.c_pull_hits;
                      let d = link t p node in
                      if Float.is_nan d then
                        Obs.Counter.incr t.inst.c_transfer_failures
                      else
                        Sim.schedule_at sim
                          (now +. ((rtt +. d) /. 1000.))
                          (fun () -> deliver t sim midx k (Sim.now sim))
                    end)
                  !missing
            end)
    t.nodes

let repair_pass t now =
  let admitted =
    match t.arbiter with
    | Some a -> Arbiter.admit a ~now "stream_repair"
    | None -> true
  in
  if not admitted then
    Obs.Counter.incr t.inst.c_repair_denied
  else begin
    ignore
      (Multicast.repair ~label:"stream_repair" ~predict:t.repair_predict
         t.tree t.repair_rng t.engine
        : Multicast.repair);
    t.repair_passes <- t.repair_passes + 1
  end

let deadline_check t emit_time k now =
  Array.iteri
    (fun midx node ->
      if midx <> t.src_idx then begin
        if not (up t.engine node) then
          Obs.Counter.incr t.inst.c_down_at_deadline
        else if has t midx k && t.recv.(midx).(k) <= now then begin
          Obs.Counter.incr t.inst.c_on_time;
          let receive_ms = (t.recv.(midx).(k) -. emit_time) *. 1000. in
          Obs.Histogram.observe t.inst.h_receive_ms receive_ms;
          let direct = Backend.query t.backend node (source t) in
          if Float.is_finite direct && direct > 0. then begin
            let s = receive_ms /. direct in
            t.stretches <- s :: t.stretches;
            Obs.Histogram.observe t.inst.h_stretch s
          end
          else begin
            (* No measurable direct path to judge stretch against: the
               delivery counts, the stretch sample is recorded as
               dropped instead of silently narrowing the percentiles. *)
            Obs.Counter.incr t.inst.c_stretch_dropped
          end
        end
        else
          Obs.Counter.incr t.inst.c_missed
      end)
    t.nodes

let run t =
  let c = t.config in
  let sim = Sim.create () in
  Sim.on_advance sim (fun time -> Engine.advance_to t.engine time);
  let chunk_s = c.chunk_ms /. 1000. in
  let deadline_s = c.deadline_ms /. 1000. in
  (* Maintenance planes stay up until the last chunk's deadline, so a
     gap opened late in the broadcast still has its recovery chance. *)
  let stop = (float_of_int (t.chunks - 1) *. chunk_s) +. deadline_s in
  for k = 0 to t.chunks - 1 do
    let at = float_of_int k *. chunk_s in
    Sim.schedule_at sim at (fun () ->
        t.recv.(t.src_idx).(k) <- at;
        Obs.Counter.incr t.inst.c_emitted;
        forward t sim t.src_idx k at);
    Sim.schedule_at sim (at +. deadline_s) (fun () ->
        deadline_check t at k (Sim.now sim))
  done;
  Sim.schedule_every sim ~start:(c.pull_interval /. 2.) ~every:c.pull_interval
    (fun () ->
      let now = Sim.now sim in
      if now > stop then false
      else begin
        pull_pass t sim now;
        true
      end);
  if c.repair_interval > 0. then
    Sim.schedule_every sim ~start:c.repair_interval ~every:c.repair_interval
      (fun () ->
        let now = Sim.now sim in
        if now > stop then false
        else begin
          repair_pass t now;
          true
        end);
  Sim.run sim;
  let n = Obs.Counter.count and i = t.inst in
  (* [Multicast.repair] writes its counts to the engine's
     [repair.*{plane=multicast}] series.  Read them only once a pass
     has registered them, so a run without repair exports no new
     zero series. *)
  let multicast name =
    if t.repair_passes = 0 then 0
    else
      n (Obs.Registry.counter (Engine.obs t.engine)
           ~labels:[ ("plane", "multicast") ] name)
  in
  let on_time = n i.c_on_time and missed = n i.c_missed in
  let deliveries = n i.c_delivered and duplicates = n i.c_duplicates in
  let pull_exchanges = n i.c_pull_exchanges in
  let judged = on_time + missed in
  {
    members = c.members;
    joined = List.length (Multicast.members t.tree);
    chunks = t.chunks;
    on_time;
    missed;
    down_at_deadline = n i.c_down_at_deadline;
    miss_rate =
      (if judged = 0 then 0. else float_of_int missed /. float_of_int judged);
    deliveries;
    duplicates;
    transfer_failures = n i.c_transfer_failures;
    lost_down = n i.c_lost_down;
    pull_exchanges;
    pull_failures = n i.c_pull_failures;
    pull_requests = n i.c_pull_requests;
    pull_hits = n i.c_pull_hits;
    overhead_ratio =
      float_of_int (duplicates + pull_exchanges) /. float_of_int (max 1 deliveries);
    stretches = Array.of_list (List.rev t.stretches);
    repair =
      {
        passes = t.repair_passes;
        denied = n i.c_repair_denied;
        detached = multicast "repair.detached";
        reattached = multicast "repair.reattached";
        rejoined = multicast "repair.rejoined";
      };
    tree_metrics = Multicast.evaluate t.tree t.engine;
  }
