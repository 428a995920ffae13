module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module System = Tivaware_vivaldi.System
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Tiv_aware = Tivaware_meridian.Tiv_aware
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Probe_stats = Tivaware_measure.Probe_stats

let default_rounds = 200

let embed_vivaldi ?config ?(rounds = default_rounds) rng m =
  let system = System.create ?config rng m in
  System.run system ~rounds;
  system

let embed_vivaldi_engine ?config ?(rounds = default_rounds) rng engine =
  let system = System.create_with_engine ?config rng engine in
  System.run system ~rounds;
  system

(* No [Backend.attach_obs] here: the backend has one instrument slot,
   and it belongs to the scenario engine's exported registry. *)
let maintenance_embedding ~config backend =
  let maintenance = ref None in
  let embed () =
    let e = Backend.engine ~config backend in
    let sys = embed_vivaldi_engine (Rng.create config.Engine.seed) e in
    maintenance := Some e;
    System.predictor sys
  in
  let probes () =
    match !maintenance with
    | None -> 0
    | Some e -> Probe_stats.label_count (Engine.stats e) "vivaldi"
  in
  (embed, probes)

let normalize (i, j) = if i < j then (i, j) else (j, i)

let embed_vivaldi_filtered ?config ?(rounds = default_rounds) ~banned rng m =
  let system = System.create ?config rng m in
  let n = System.size system in
  let sys_rng = System.rng system in
  (* Rebuild each node's probing set, rejecting banned edges. *)
  for i = 0 to n - 1 do
    let want = Array.length (System.neighbors system i) in
    let chosen = ref [] and count = ref 0 and attempts = ref 0 in
    let seen = Hashtbl.create (2 * want) in
    while !count < want && !attempts < 50 * want do
      incr attempts;
      let j = Rng.int sys_rng n in
      if j <> i && (not (Hashtbl.mem seen j)) && not (banned (normalize (i, j)))
      then begin
        Hashtbl.replace seen j ();
        chosen := j :: !chosen;
        incr count
      end
    done;
    if !count > 0 then System.set_neighbors system i (Array.of_list !chosen)
  done;
  System.run system ~rounds;
  system

let banned_set pairs =
  let table = Hashtbl.create (Array.length pairs) in
  Array.iter (fun e -> Hashtbl.replace table (normalize e) ()) pairs;
  fun e -> Hashtbl.mem table (normalize e)

let meridian_build m cfg rng nodes =
  Overlay.build rng (Backend.dense m) cfg ~meridian_nodes:nodes

let meridian_build_filtered m cfg ~banned rng nodes =
  let edge_filter a b = not (banned (normalize (a, b))) in
  Overlay.build ~edge_filter rng (Backend.dense m) cfg ~meridian_nodes:nodes

let meridian_build_tiv_aware engine cfg ~predicted ?ts ?tl rng nodes =
  let placement = Tiv_aware.placement cfg ~predicted ~engine ?ts ?tl () in
  Overlay.build ~placement rng (Backend.of_engine engine) cfg
    ~meridian_nodes:nodes

let meridian_fallback_tiv_aware engine ~predicted ?ts () overlay =
  Tiv_aware.fallback overlay ~predicted ~engine ?ts ()
