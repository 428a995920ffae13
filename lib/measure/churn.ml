module Rng = Tivaware_util.Rng
module Pqueue = Tivaware_util.Pqueue

type config = {
  fraction : float;
  mean_up : float;
  mean_down : float;
  seed : int;
}

let default = { fraction = 0.2; mean_up = 60.; mean_down = 10.; seed = 0 }

let validate_config ctx c =
  if Float.is_nan c.fraction || c.fraction < 0. || c.fraction > 1. then
    invalid_arg
      (Printf.sprintf "%s: churn fraction must be in [0, 1] (got %g)" ctx
         c.fraction);
  if Float.is_nan c.mean_up || c.mean_up <= 0. then
    invalid_arg
      (Printf.sprintf "%s: churn mean_up must be > 0 s (got %g)" ctx c.mean_up);
  if Float.is_nan c.mean_down || c.mean_down <= 0. then
    invalid_arg
      (Printf.sprintf "%s: churn mean_down must be > 0 s (got %g)" ctx
         c.mean_down)

(* A churning node's whole lifetime schedule flows from its own
   generator, so state at time T is a pure function of (seed, node, T)
   no matter how the clock was advanced to T — or in which order due
   nodes are stepped. *)
type node_state = {
  id : int;
  rng : Rng.t;
  mutable up : bool;
  mutable next : float;  (* absolute time of the next toggle *)
}

type t = {
  config : config;
  nodes : node_state option array;
  due : node_state Pqueue.t;  (* every churning node, keyed by [next] *)
  mutable dirty : node_state list;  (* toggled since the last flush *)
  mutable time : float;
  mutable transitions : int;
}

let create ?(config = default) ~n () =
  validate_config "Churn.create" config;
  let node_of i =
    let rng = Rng.create ((config.seed * 2_000_029) + i) in
    if Rng.float rng 1. < config.fraction then
      (* Every node starts up; the first failure arrives after one
         exponential up-lifetime. *)
      Some
        {
          id = i;
          rng;
          up = true;
          next = Rng.exponential rng ~rate:(1. /. config.mean_up);
        }
    else None
  in
  let nodes = Array.init n node_of in
  let churning = List.filter_map Fun.id (Array.to_list nodes) in
  let due = Pqueue.create () in
  List.iter (fun st -> Pqueue.push due st.next st) churning;
  (* The first flush mirrors every churning node's initial (up) state. *)
  { config; nodes; due; dirty = churning; time = 0.; transitions = 0 }

let config t = t.config

let churning t i =
  i >= 0 && i < Array.length t.nodes && t.nodes.(i) <> None

let step_node t st time =
  while st.next <= time do
    st.up <- not st.up;
    t.transitions <- t.transitions + 1;
    let mean = if st.up then t.config.mean_up else t.config.mean_down in
    st.next <- st.next +. Rng.exponential st.rng ~rate:(1. /. mean)
  done

(* Only the nodes whose next toggle is due are touched; each is stepped
   through every toggle up to [time] (a long jump may flip it many
   times) and goes back on the heap at its new [next]. *)
let advance_to t time =
  if time > t.time then begin
    while (not (Pqueue.is_empty t.due)) && Pqueue.min_prio t.due <= time do
      let st = Pqueue.pop t.due in
      step_node t st time;
      Pqueue.push t.due st.next st;
      t.dirty <- st :: t.dirty
    done;
    t.time <- time
  end


let transitions t = t.transitions

let is_up t i =
  match if i >= 0 && i < Array.length t.nodes then t.nodes.(i) else None with
  | None -> true
  | Some st -> st.up

(* The fault injector's node-outage set is the ground truth probes are
   checked against; only nodes that toggled since the last flush can
   disagree with it. *)
let flush t fault =
  List.iter (fun st -> Fault.set_down fault st.id (not st.up)) t.dirty;
  t.dirty <- []

let drive t fault ~time =
  advance_to t time;
  flush t fault
