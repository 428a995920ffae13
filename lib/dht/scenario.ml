module Rng = Tivaware_util.Rng
module Engine = Tivaware_measure.Engine
module Churn = Tivaware_measure.Churn
module Backend = Tivaware_backend.Delay_backend
module Sim = Tivaware_eventsim.Sim
module Obs = Tivaware_obs

type config = {
  keys : int;
  zipf_s : float;
  lookups : int;
  duration : float;
  interval : float;
  fingers_per_round : int;
  replicas : int;
  candidates : int;
  seed : int;
}

let default_config =
  {
    keys = 512;
    zipf_s = 0.9;
    lookups = 1000;
    duration = 120.;
    interval = 2.;
    fingers_per_round = 1;
    replicas = 2;
    candidates = 8;
    seed = 7;
  }

let validate_config ~nodes ctx c =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if c.keys < 1 then fail "%s: keys must be >= 1 (got %d)" ctx c.keys;
  if Float.is_nan c.zipf_s || c.zipf_s < 0. then
    fail "%s: zipf_s must be non-negative (got %g)" ctx c.zipf_s;
  if c.lookups < 1 then fail "%s: lookups must be >= 1 (got %d)" ctx c.lookups;
  if not (Float.is_finite c.duration) || c.duration <= 0. then
    fail "%s: duration must be positive (got %g)" ctx c.duration;
  if c.fingers_per_round < 0 then
    fail "%s: fingers_per_round must be >= 0 (got %d)" ctx c.fingers_per_round;
  if c.replicas < 0 then fail "%s: replicas must be >= 0 (got %d)" ctx c.replicas;
  if c.candidates < 1 then fail "%s: candidates must be >= 1 (got %d)" ctx c.candidates;
  (* Each key is drawn once, each lookup is one event, and every node
     runs one round per interval. *)
  let rounds = if c.interval > 0. then c.duration /. c.interval else 0. in
  Sim.check_work ctx
    [
      ("keys", float_of_int c.keys);
      ("lookups", float_of_int c.lookups);
      ("duration", rounds *. float_of_int nodes);
    ]

type t = {
  config : config;
  engine : Engine.t;
  chord : Chord.t;
  store : Chord.Store.t;
  stabilizer : Chord.Stabilizer.t option;
  wrong : Obs.Counter.t;
}

let create ?arbiter ~config ~backend ~engine () =
  let n = Backend.size backend and c = config in
  validate_config ~nodes:n "Dht.Scenario" c;
  let chord =
    Chord.build ~candidates:c.candidates ~predict:(Engine.rtt ~label:"dht" engine) n
  in
  (* Distinct key ids, drawn by rejection. *)
  let rng = Rng.create (c.seed + 11) and seen = Hashtbl.create (2 * c.keys) in
  let rec draw () =
    let k = Rng.int rng Id_space.modulus in
    if Hashtbl.mem seen k then draw ()
    else begin
      Hashtbl.replace seen k ();
      k
    end
  in
  let keys = Array.init c.keys (fun _ -> draw ()) in
  let store = Chord.Store.create ~replicas:c.replicas chord ~keys in
  (* Only the stabilizer asks the arbiter for admission, so its carve
     is a hard ceiling on background spend while the engine-level
     budget still caps the aggregate. *)
  let stabilizer =
    if c.interval <= 0. then None
    else
      let config =
        {
          Chord.Stabilizer.default_config with
          Chord.Stabilizer.interval = c.interval;
          fingers_per_round = c.fingers_per_round;
        }
      in
      Some (Chord.Stabilizer.create ~config ?arbiter ~store chord engine)
  in
  let wrong = Obs.Registry.counter (Engine.obs engine) "chord.lookup_wrong_owner" in
  { config; engine; chord; store; stabilizer; wrong }

type result = {
  issued : int;
  skipped : int;
  wrong : int;
  hops : int;
  latencies : float array;
  totals : Chord.Stabilizer.totals;
  migrated : int;
  rehomes : int;
}

let run t =
  let c = t.config and engine = t.engine in
  let sim = Sim.create () in
  (match t.stabilizer with
  | Some stab -> Chord.Stabilizer.schedule stab sim
  | None -> Sim.on_advance sim (Engine.advance_to engine));
  let zipf = Tivaware_util.Zipf.create ~n:c.keys ~s:c.zipf_s in
  let up node =
    match Engine.churn engine with None -> true | Some ch -> Churn.is_up ch node
  in
  let n = Chord.size t.chord in
  (* Lookup hops are charged as probes on the dht plane. *)
  let probed = Backend.of_fn ~size:n (Engine.rtt ~label:"dht" engine) in
  let rng = Rng.create (c.seed + 13) in
  let latencies = ref [] and hops = ref 0 and issued = ref 0 and skipped = ref 0 in
  for i = 0 to c.lookups - 1 do
    let at = c.duration *. float_of_int (i + 1) /. float_of_int (c.lookups + 1) in
    Sim.schedule_at sim at (fun () ->
        let source = Rng.int rng n in
        let key = Chord.Store.key t.store (Tivaware_util.Zipf.sample zipf rng) in
        if not (up source) then incr skipped
        else begin
          incr issued;
          let l = Chord.lookup t.chord probed ~source ~key in
          latencies := l.Chord.latency :: !latencies;
          hops := !hops + l.Chord.hops;
          (* Correct = ends at a node that is actually up (ground truth,
             not belief) and holds the key. *)
          if not (up l.Chord.owner && Chord.Store.holds t.store ~key ~node:l.Chord.owner)
          then Obs.Counter.incr t.wrong
        end)
  done;
  Sim.run sim ~until:c.duration;
  let totals =
    match t.stabilizer with
    | Some stab -> Chord.Stabilizer.totals stab
    | None ->
        { rounds = 0; checked = 0; rerouted = 0; marked_dead = 0; revived = 0;
          denied = 0 }
  in
  {
    issued = !issued;
    skipped = !skipped;
    wrong = Obs.Counter.count t.wrong;
    hops = !hops;
    latencies = Array.of_list (List.rev !latencies);
    totals;
    migrated = Chord.Store.migrated t.store;
    rehomes = Chord.Store.rehomes t.store;
  }
