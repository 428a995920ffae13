module Rng = Tivaware_util.Rng
module Zipf = Tivaware_util.Zipf
module Engine = Tivaware_measure.Engine
module Dynamics = Tivaware_measure.Dynamics
module Profile = Tivaware_measure.Profile
module Arbiter = Tivaware_measure.Arbiter
module Backend = Tivaware_backend.Delay_backend
module Sim = Tivaware_eventsim.Sim
module Obs = Tivaware_obs
module Selection = Tivaware_tiv.Selection

type config = {
  devices : int;
  zones : int;
  part_power : int;
  replicas : int;
  objects : int;
  zipf_s : float;
  reads : int;
  duration : float;
  repair_interval : float;
  failure_penalty_ms : float;
  seed : int;
}

let default_config =
  {
    devices = 24;
    zones = 4;
    part_power = 6;
    replicas = 3;
    objects = 256;
    zipf_s = 0.9;
    reads = 600;
    duration = 120.;
    repair_interval = 10.;
    failure_penalty_ms = 3000.;
    seed = 7;
  }

(* [clock] is what the engine replays of churn and route flaps over
   the run (0 before an engine exists). *)
let validate ~clock ctx c =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if c.devices < 1 then fail "%s: devices must be >= 1 (got %d)" ctx c.devices;
  if c.zones < 1 then fail "%s: zones must be >= 1 (got %d)" ctx c.zones;
  if c.part_power < 0 || c.part_power > 20 then
    fail "%s: part_power must be in [0, 20] (got %d)" ctx c.part_power;
  if c.replicas < 1 then fail "%s: replicas must be >= 1 (got %d)" ctx c.replicas;
  if c.replicas > c.devices then
    fail "%s: replicas (%d) exceeds devices (%d)" ctx c.replicas c.devices;
  if c.objects < 1 then fail "%s: objects must be >= 1 (got %d)" ctx c.objects;
  if not (Float.is_finite c.zipf_s) || c.zipf_s < 0. then
    fail "%s: zipf_s must be non-negative and finite (got %g)" ctx c.zipf_s;
  if c.reads < 0 then fail "%s: reads must be >= 0 (got %d)" ctx c.reads;
  if not (Float.is_finite c.duration) || c.duration <= 0. then
    fail "%s: duration must be positive (got %g)" ctx c.duration;
  if not (Float.is_finite c.repair_interval) then
    fail "%s: repair_interval must be finite (got %g)" ctx c.repair_interval;
  if Float.is_nan c.failure_penalty_ms || c.failure_penalty_ms < 0. then
    fail "%s: failure_penalty_ms must be >= 0 (got %g)" ctx c.failure_penalty_ms;
  (* Each read is one event; each repair pass probes every device. *)
  let passes = if c.repair_interval > 0. then c.duration /. c.repair_interval else 0. in
  Sim.check_work ctx
    [
      ("reads", float_of_int c.reads);
      ("duration", passes *. float_of_int c.devices);
      ("duration", clock);
    ]

let validate_config ctx c = validate ~clock:0. ctx c

(* The run's only tally of its outcomes: [run] reads its result from
   these. *)
type instruments = {
  c_reads : Obs.Counter.t;
  c_failures : Obs.Counter.t;
  c_skipped : Obs.Counter.t;
  c_dead : Obs.Counter.t;
  c_handoff : Obs.Counter.t;
  c_checked : Obs.Counter.t;
  c_rehomed : Obs.Counter.t;
  c_restored : Obs.Counter.t;
  c_denied : Obs.Counter.t;
  h_read_ms : Obs.Histogram.t;
}

let read_ms_edges =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000.; 20000. |]

type t = {
  config : config;
  policy : Selection.t;
  backend : Backend.t;
  engine : Engine.t;
  arbiter : Arbiter.t option;
  ring : Ring.t;
  clients : int array;
  zipf : Zipf.t;
  wl : Rng.t;  (* workload stream: client draws *)
  obj_rng : Rng.t;  (* workload stream: object draws *)
  nodes : int array;  (* delay-space node, by device id *)
  pairs : (int * int) array;  (* (device id, node), by device id *)
  believed_down : bool array;  (* by device id *)
  primary : int array;  (* parts * replicas: the ring's assignment *)
  serving : int array;  (* parts * replicas, device ids; repair-maintained *)
  reading : reading;
  inst : instruments;
  mutable passes : int;
}

(* The read in progress, reused by every read so a read allocates no
   state of its own: the policy's candidates are the first [len] of
   [cands], and [latency_ms] (a float-only record, stored flat) holds
   the penalties paid so far, then the read's latency. *)
and reading = {
  cands : (int * int) array;  (* replicas long *)
  mutable len : int;
  mutable part : int;
  mutable served : int;  (* the serving device; -1 = none (yet) *)
  mutable probes : int;
  mutable attempts : int;
  mutable handoff : bool;
  latency_ms : latency;
}

and latency = { mutable ms : float }

let make_instruments obs =
  let labels = [ ("plane", "store") ] in
  {
    c_reads = Obs.Registry.counter obs "store.reads";
    c_failures = Obs.Registry.counter obs "store.read_failures";
    c_skipped = Obs.Registry.counter obs "store.skipped";
    c_dead = Obs.Registry.counter obs "store.dead_attempts";
    c_handoff = Obs.Registry.counter obs "store.handoff_reads";
    c_checked = Obs.Registry.counter obs ~labels "repair.checked";
    c_rehomed = Obs.Registry.counter obs ~labels "repair.rehomed";
    c_restored = Obs.Registry.counter obs ~labels "repair.restored";
    c_denied = Obs.Registry.counter obs ~labels "repair.denied";
    h_read_ms = Obs.Registry.histogram obs ~edges:read_ms_edges "store.read_ms";
  }

let weights = [| 1.; 1.; 2.; 2.; 4. |]

let create ?arbiter ~config ~policy ~backend ~engine () =
  let n = Backend.size backend in
  (* Reads and repairs probe from any node to a device. *)
  let links = n * config.devices in
  validate
    ~clock:(Engine.clock_work engine ~links ~until:config.duration)
    "Store.Scenario" config;
  if config.devices > n then
    invalid_arg
      (Printf.sprintf "Store.Scenario: devices (%d) exceeds delay-space nodes (%d)"
         config.devices n);
  let rng = Rng.create ((config.seed * 0x9e37) + 0x51) in
  let nodes = Rng.sample_indices rng ~n ~k:config.devices in
  Array.sort compare nodes;
  let specs =
    Array.mapi
      (fun i node ->
        { Ring.node; zone = i mod config.zones; weight = Rng.choice rng weights })
      nodes
  in
  let ring =
    Ring.create ~seed:config.seed ~part_power:config.part_power
      ~replicas:config.replicas specs
  in
  let is_device = Array.make n false in
  Array.iter (fun node -> is_device.(node) <- true) nodes;
  let clients =
    let all = List.init n Fun.id in
    match List.filter (fun i -> not is_device.(i)) all with
    | [] -> Array.of_list all
    | cs -> Array.of_list cs
  in
  let parts = Ring.parts ring and replicas = Ring.replicas ring in
  let primary = Array.make (parts * replicas) (-1) in
  for p = 0 to parts - 1 do
    Array.blit (Ring.assignment ring p) 0 primary (p * replicas) replicas
  done;
  let pairs = Array.mapi (fun id node -> (id, node)) nodes in
  Engine.register_plane engine "store";
  Engine.register_plane engine "store_repair";
  {
    config;
    policy;
    backend;
    engine;
    arbiter;
    ring;
    clients;
    zipf = Zipf.create ~n:config.objects ~s:config.zipf_s;
    wl = Rng.create ((config.seed * 0x9e37) + 0x6d);
    obj_rng = Rng.create ((config.seed * 0x9e37) + 0x7f);
    nodes;
    pairs;
    believed_down = Array.make config.devices false;
    primary;
    serving = Array.copy primary;
    reading =
      {
        cands = Array.make replicas pairs.(0);
        len = 0;
        part = 0;
        served = -1;
        probes = 0;
        attempts = 0;
        handoff = false;
        latency_ms = { ms = 0. };
      };
    inst = make_instruments (Engine.obs engine);
    passes = 0;
  }

let ring t = t.ring

(* What the read actually experiences on the chosen link right now:
   the static true delay plus whatever extra delay the dynamics plane
   currently imposes (route flaps, detours).  Fresh measurements track
   this; stale estimates do not. *)
let service_delay t client node =
  let base = Backend.query t.backend client node in
  if Float.is_nan base then nan
  else
    match Engine.dynamics t.engine with
    | Some d -> base +. (Dynamics.link d client node).Profile.extra_delay
    | None -> base

type read_outcome = {
  obj : int;
  part : int;
  client : int;
  device : int option;
  latency_ms : float;
  probes : int;
  attempts : int;
  handoff : bool;
}

(* One attempt on device [id]: [true] when it serves, adding its
   service delay to the penalties already paid; otherwise it pays
   [failure_penalty_ms]. *)
let attempt t ~client id =
  let rd = t.reading in
  rd.attempts <- rd.attempts + 1;
  let node = t.nodes.(id) in
  let d = if Engine.up t.engine node then service_delay t client node else nan in
  if Float.is_nan d then begin
    rd.latency_ms.ms <- rd.latency_ms.ms +. t.config.failure_penalty_ms;
    Obs.Counter.incr t.inst.c_dead;
    false
  end
  else begin
    rd.latency_ms.ms <- rd.latency_ms.ms +. d;
    rd.served <- id;
    true
  end

(* Drop every candidate on device [id], keeping candidate order. *)
let drop_candidate rd id =
  let kept = ref 0 in
  for k = 0 to rd.len - 1 do
    let ((dev, _) as c) = rd.cands.(k) in
    if dev <> id then begin
      rd.cands.(!kept) <- c;
      incr kept
    end
  done;
  rd.len <- !kept

(* One GET into [t.reading]: the policy picks among the partition's
   serving devices, each failed attempt drops its device, and when the
   policy has nobody left (or can rank nobody) the read walks the
   ring's handoff order. *)
let read t ~client ~obj =
  let rd = t.reading and replicas = t.config.replicas in
  let part = Ring.partition_of t.ring obj in
  for r = 0 to replicas - 1 do
    rd.cands.(r) <- t.pairs.(t.serving.((part * replicas) + r))
  done;
  rd.len <- replicas;
  rd.part <- part;
  rd.served <- -1;
  rd.probes <- 0;
  rd.attempts <- 0;
  rd.handoff <- false;
  rd.latency_ms.ms <- 0.;
  let asking = ref true in
  while !asking && rd.len > 0 do
    match
      Selection.select ~label:"store" t.policy ~engine:t.engine ~client
        ~candidates:rd.cands ~len:rd.len
    with
    | None -> asking := false
    | Some c ->
        rd.probes <- rd.probes + c.Selection.probes;
        if attempt t ~client c.Selection.device then asking := false
        else drop_candidate rd c.Selection.device
  done;
  if rd.served < 0 then begin
    rd.handoff <- true;
    let walk = Ring.handoff t.ring part in
    let k = ref 0 in
    while !k < Array.length walk && not (attempt t ~client walk.(!k)) do
      incr k
    done
  end;
  Obs.Counter.incr t.inst.c_reads;
  if rd.handoff then Obs.Counter.incr t.inst.c_handoff;
  if rd.served >= 0 then Obs.Histogram.observe t.inst.h_read_ms rd.latency_ms.ms
  else Obs.Counter.incr t.inst.c_failures

let read_outcome t ~client ~obj =
  let rd = t.reading in
  {
    obj;
    part = rd.part;
    client;
    device = (if rd.served >= 0 then Some rd.served else None);
    latency_ms = rd.latency_ms.ms;
    probes = rd.probes;
    attempts = rd.attempts;
    handoff = rd.handoff;
  }

type pass_outcome = {
  pass : int;
  time : float;
  checked : int;
  rehomed : int;
  restored : int;
  denied : int;
}

(* The believed-up device nearest [id] by cyclic id order: who probes
   [id]'s liveness.  Falls back to [id]'s successor so a fully-suspected
   cluster still gets probed (from a possibly-dead peer, whose probes
   then fail — honest pessimism).  Ids are dense [0 .. n-1]. *)
let prober_for t id =
  let n = Array.length t.believed_down in
  let rec find k =
    if k >= n then (id + 1) mod n
    else
      let cand = (id + k) mod n in
      if not t.believed_down.(cand) then cand else find (k + 1)
  in
  find 1

(* Whether device [id] serves a replica of the partition at [base]. *)
let serves t ~base id =
  let rec go r = r < t.config.replicas && (t.serving.(base + r) = id || go (r + 1)) in
  go 0

let rehome t id =
  let replicas = t.config.replicas in
  let moved = ref 0 in
  for part = 0 to Ring.parts t.ring - 1 do
    let base = part * replicas in
    for r = 0 to replicas - 1 do
      if t.serving.(base + r) = id then begin
        let walk = Ring.handoff t.ring part in
        let k = ref 0 in
        while
          !k < Array.length walk
          && (t.believed_down.(walk.(!k)) || serves t ~base walk.(!k))
        do
          incr k
        done;
        if !k < Array.length walk then begin
          t.serving.(base + r) <- walk.(!k);
          incr moved
        end
      end
    done
  done;
  !moved

let restore t id =
  let moved = ref 0 in
  for slot = 0 to Array.length t.primary - 1 do
    if t.primary.(slot) = id && t.serving.(slot) <> id then begin
      t.serving.(slot) <- id;
      incr moved
    end
  done;
  !moved

let repair_pass t =
  let now = Engine.now t.engine in
  let checked = ref 0 and rehomed = ref 0 and restored = ref 0 and denied = ref 0 in
  for id = 0 to Array.length t.nodes - 1 do
    let admitted =
      match t.arbiter with
      | Some a -> Arbiter.admit a ~now "store_repair"
      | None -> true
    in
    if not admitted then begin
      incr denied;
      Obs.Counter.incr t.inst.c_denied
    end
    else begin
      let prober = prober_for t id in
      let rtt =
        if prober = id then 0.
        else
          Engine.rtt ~label:"store_repair" t.engine t.nodes.(prober) t.nodes.(id)
      in
      incr checked;
      Obs.Counter.incr t.inst.c_checked;
      let alive = not (Float.is_nan rtt) in
      if alive && t.believed_down.(id) then begin
        t.believed_down.(id) <- false;
        let k = restore t id in
        restored := !restored + k;
        Obs.Counter.add t.inst.c_restored (float_of_int k)
      end
      else if (not alive) && not t.believed_down.(id) then begin
        t.believed_down.(id) <- true;
        let k = rehome t id in
        rehomed := !rehomed + k;
        Obs.Counter.add t.inst.c_rehomed (float_of_int k)
      end
    end
  done;
  t.passes <- t.passes + 1;
  {
    pass = t.passes;
    time = now;
    checked = !checked;
    rehomed = !rehomed;
    restored = !restored;
    denied = !denied;
  }

type repair_totals = {
  passes : int;
  total_checked : int;
  total_rehomed : int;
  total_restored : int;
  total_denied : int;
}

type result = {
  issued : int;
  completed : int;
  failed : int;
  skipped : int;
  handoffs : int;
  dead_attempts : int;
  policy_probes : int;
  latencies : float array;
  repair : repair_totals;
}

let run ?trace ?repair_trace t =
  let c = t.config in
  let sim = Sim.create () in
  Sim.on_advance sim (Engine.advance_to t.engine);
  (* Timer first: at equal times the first pass runs before the read,
     every later one (scheduled as the previous fires) after it. *)
  if c.repair_interval > 0. then
    Sim.schedule_every sim ~start:c.repair_interval ~every:c.repair_interval (fun () ->
        let out = repair_pass t in
        (match repair_trace with Some f -> f out | None -> ());
        true);
  let probes = ref 0 and lat = Array.create_float c.reads and n_lat = ref 0 in
  Sim.schedule_sequence sim ~count:c.reads
    ~time:(fun i -> c.duration *. float_of_int (i + 1) /. float_of_int (c.reads + 1))
    (fun _ ->
      let client = t.clients.(Rng.int t.wl (Array.length t.clients)) in
      let obj = Zipf.sample t.zipf t.obj_rng in
      if not (Engine.up t.engine client) then Obs.Counter.incr t.inst.c_skipped
      else begin
        read t ~client ~obj;
        (match trace with Some f -> f (read_outcome t ~client ~obj) | None -> ());
        let rd = t.reading in
        probes := !probes + rd.probes;
        if rd.served >= 0 then begin
          lat.(!n_lat) <- rd.latency_ms.ms;
          incr n_lat
        end
      end);
  Sim.run sim ~until:c.duration;
  let n = Obs.Counter.count and i = t.inst in
  let issued = n i.c_reads and failed = n i.c_failures in
  {
    issued;
    completed = issued - failed;
    failed;
    skipped = n i.c_skipped;
    handoffs = n i.c_handoff;
    dead_attempts = n i.c_dead;
    policy_probes = !probes;
    latencies = Array.sub lat 0 !n_lat;
    repair =
      {
        passes = t.passes;
        total_checked = n i.c_checked;
        total_rehomed = n i.c_rehomed;
        total_restored = n i.c_restored;
        total_denied = n i.c_denied;
      };
  }
