module Rng = Tivaware_util.Rng
module Sim = Tivaware_eventsim.Sim
module Matrix = Tivaware_delay_space.Matrix

type config = {
  seeds : int;
  period : float;
  fanout : int;
}

let default_config = { seeds = 3; period = 1.; fanout = 8 }

type t = {
  meridian_nodes : int array;
  views : (int, unit) Hashtbl.t array;  (* indexed by participant slot *)
  slot_of : (int, int) Hashtbl.t;
  mutable messages : int;
}

let candidates_hook t node =
  match Hashtbl.find_opt t.slot_of node with
  | None -> invalid_arg "Gossip.candidates_hook: not a participant"
  | Some s ->
    let out = Hashtbl.fold (fun id () acc -> id :: acc) t.views.(s) [] in
    Array.of_list (List.sort compare out)


let coverage t =
  let count = Array.length t.meridian_nodes in
  if count <= 1 then 1.
  else begin
    let acc = ref 0. in
    Array.iter
      (fun views ->
        acc := !acc +. (float_of_int (Hashtbl.length views) /. float_of_int (count - 1)))
      t.views;
    !acc /. float_of_int count
  end

let messages_sent t = t.messages

let run ?(config = default_config) sim rng matrix ~meridian_nodes ~duration =
  assert (config.seeds >= 1 && config.period > 0. && config.fanout >= 1);
  let count = Array.length meridian_nodes in
  assert (count >= 2);
  let slot_of = Hashtbl.create count in
  Array.iteri (fun s id -> Hashtbl.replace slot_of id s) meridian_nodes;
  let views = Array.init count (fun _ -> Hashtbl.create 16) in
  let t = { meridian_nodes; views; slot_of; messages = 0 } in
  (* Bootstrap: a few random seed contacts per node. *)
  Array.iteri
    (fun s node ->
      let want = min config.seeds (count - 1) in
      let picked = ref 0 and attempts = ref 0 in
      while !picked < want && !attempts < 50 * want do
        incr attempts;
        let peer = meridian_nodes.(Rng.int rng count) in
        if peer <> node && not (Hashtbl.mem views.(s) peer) then begin
          Hashtbl.replace views.(s) peer ();
          incr picked
        end
      done)
    meridian_nodes;
  let deadline = Sim.now sim +. duration in
  let sample_view s self =
    (* Up to fanout known ids plus the sender itself. *)
    let ids = Hashtbl.fold (fun id () acc -> id :: acc) views.(s) [] in
    let ids = Array.of_list ids in
    Rng.shuffle rng ids;
    let take = min config.fanout (Array.length ids) in
    self :: Array.to_list (Array.sub ids 0 take)
  in
  let rec gossip_loop s node () =
    if Sim.now sim < deadline then begin
      let ids = Hashtbl.fold (fun id () acc -> id :: acc) views.(s) [] in
      (match ids with
      | [] -> ()
      | _ ->
        let peers = Array.of_list ids in
        let peer = Rng.choice rng peers in
        let rtt = Matrix.get matrix node peer in
        if not (Float.is_nan rtt) then begin
          t.messages <- t.messages + 1;
          let payload = sample_view s node in
          Sim.schedule_after sim (rtt /. 2000.) (fun () ->
              match Hashtbl.find_opt slot_of peer with
              | None -> ()
              | Some ps ->
                List.iter
                  (fun id ->
                    if id <> peer && Hashtbl.mem slot_of id then
                      Hashtbl.replace views.(ps) id ())
                  payload)
        end);
      Sim.schedule_after sim
        (config.period *. Rng.uniform rng 0.9 1.1)
        (gossip_loop s node)
    end
  in
  Array.iteri
    (fun s node ->
      Sim.schedule_after sim (Rng.float rng config.period) (gossip_loop s node))
    meridian_nodes;
  Sim.run ~until:deadline sim;
  t
