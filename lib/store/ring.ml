type spec = { node : int; zone : int; weight : float }
type device = { id : int; node : int; zone : int; weight : float }

type t = {
  parts : int;
  replicas : int;
  seed : int;
  devs : device array;  (* indexed by id *)
  table : int array;  (* parts * replicas, flattened *)
  handoffs : int array option array;  (* by partition, filled by [handoff] *)
}

(* SplitMix64 finalizer: the per-slot tie-break and the object hash
   both need a stateless hash so the assignment is a pure function of
   (seed, inputs) and never of iteration history. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let hash2 a b =
  Int64.to_int
    (mix64 (Int64.add (Int64.mul (Int64.of_int a) 0x9e3779b97f4a7c15L) (Int64.of_int b)))
  land max_int

let parts t = t.parts
let replicas t = t.replicas
let devices t = Array.copy t.devs

let assignment t part =
  if part < 0 || part >= t.parts then
    invalid_arg (Printf.sprintf "Store.Ring.assignment: partition %d out of range" part);
  Array.init t.replicas (fun r -> t.table.((part * t.replicas) + r))

let partition_of t obj =
  hash2 (hash2 t.seed 0x9106) obj land (t.parts - 1)

let live_ids t = List.init (Array.length t.devs) Fun.id
let weight_of t id = t.devs.(id).weight
let zone_of t id = t.devs.(id).zone

(* Weight-proportional desired slot counts with per-device cap [parts]
   (one replica of a partition per device): waterfill, redistributing
   any capped device's excess over the uncapped remainder. *)
let desired_shares t =
  let des = Array.make (Array.length t.devs) 0. in
  let cap = float_of_int t.parts in
  let rec fill remaining ids =
    let sum_w = List.fold_left (fun a id -> a +. weight_of t id) 0. ids in
    if sum_w <= 0. || ids = [] then ()
    else begin
      let over, under =
        List.partition (fun id -> remaining *. weight_of t id /. sum_w > cap) ids
      in
      if over = [] then
        List.iter (fun id -> des.(id) <- remaining *. weight_of t id /. sum_w) ids
      else begin
        List.iter (fun id -> des.(id) <- cap) over;
        fill (remaining -. (cap *. float_of_int (List.length over))) under
      end
    end
  in
  fill (float_of_int (t.parts * t.replicas)) (live_ids t);
  des

let desired_share t id =
  if id < 0 || id >= Array.length t.devs then
    invalid_arg (Printf.sprintf "Store.Ring.desired_share: unknown device %d" id);
  (desired_shares t).(id)

let in_part t part id =
  let base = part * t.replicas in
  let rec go r = r < t.replicas && (t.table.(base + r) = id || go (r + 1)) in
  go 0

let zones_in_part t part upto =
  let base = part * t.replicas in
  let zs = ref [] in
  for r = 0 to upto - 1 do
    let z = zone_of t t.table.(base + r) in
    if not (List.mem z !zs) then zs := z :: !zs
  done;
  !zs

(* Pick the best device for one slot of [part]: among candidates not
   already in the partition, prefer zones the partition does not use
   yet, then the largest deficit (desired - assigned), with a seeded
   per-slot hash as the final tie-break. *)
let pick_device t ~des ~count ~part ~used_zones =
  let tie id = hash2 (hash2 t.seed (part + 0x51ab)) id in
  let better (d1, t1) (d2, t2) = d1 > d2 || (d1 = d2 && t1 > t2) in
  let best_pref = ref None and best_any = ref None in
  List.iter
    (fun id ->
      if not (in_part t part id) then begin
        let key = (des.(id) -. float_of_int count.(id), tie id) in
        let consider slot =
          match !slot with
          | Some (_, k) when better k key |> not -> slot := Some (id, key)
          | None -> slot := Some (id, key)
          | Some _ -> ()
        in
        consider best_any;
        if not (List.mem (zone_of t id) used_zones) then consider best_pref
      end)
    (live_ids t);
  match (!best_pref, !best_any) with
  | Some (id, _), _ -> Some id
  | None, Some (id, _) -> Some id
  | None, None -> None

let build t =
  let des = desired_shares t in
  let count = Array.make (Array.length t.devs) 0 in
  for part = 0 to t.parts - 1 do
    for r = 0 to t.replicas - 1 do
      let used_zones = zones_in_part t part r in
      match pick_device t ~des ~count ~part ~used_zones with
      | Some id ->
          t.table.((part * t.replicas) + r) <- id;
          count.(id) <- count.(id) + 1
      | None -> invalid_arg "Store.Ring: not enough devices to fill a partition"
    done
  done

let validate_spec ~ctx i (s : spec) =
  if not (Float.is_finite s.weight) || s.weight <= 0. then
    invalid_arg
      (Printf.sprintf "%s: weight must be positive and finite (got %g for device %d)"
         ctx s.weight i);
  if s.node < 0 then
    invalid_arg (Printf.sprintf "%s: node must be >= 0 (got %d for device %d)" ctx s.node i);
  if s.zone < 0 then
    invalid_arg (Printf.sprintf "%s: zone must be >= 0 (got %d for device %d)" ctx s.zone i)

let create ?(seed = 1) ~part_power ~replicas specs =
  let ctx = "Store.Ring.create" in
  if part_power < 0 || part_power > 20 then
    invalid_arg (Printf.sprintf "%s: part_power must be in [0, 20] (got %d)" ctx part_power);
  if replicas < 1 then
    invalid_arg (Printf.sprintf "%s: replicas must be >= 1 (got %d)" ctx replicas);
  let n = Array.length specs in
  if n = 0 then invalid_arg (Printf.sprintf "%s: devices must be non-empty" ctx);
  if replicas > n then
    invalid_arg (Printf.sprintf "%s: replicas (%d) exceeds devices (%d)" ctx replicas n);
  Array.iteri (validate_spec ~ctx) specs;
  let parts = 1 lsl part_power in
  let t =
    {
      parts;
      replicas;
      seed;
      devs =
        Array.mapi
          (fun id (s : spec) -> { id; node = s.node; zone = s.zone; weight = s.weight })
          specs;
      table = Array.make (parts * replicas) (-1);
      handoffs = Array.make parts None;
    }
  in
  build t;
  t

let compute_handoff t part =
  let primaries = assignment t part in
  let is_primary id = Array.exists (( = ) id) primaries in
  let others = List.filter (fun id -> not (is_primary id)) (live_ids t) in
  let order id = hash2 (hash2 t.seed (part + 0x4841)) id in
  let used_zones = Array.to_list (Array.map (zone_of t) primaries) in
  (* Phase 1: one device per zone the partition does not cover yet,
     zones in hashed order, each represented by its hashed-first
     device; phase 2: everything else in hashed order. *)
  let missing_zones =
    List.sort_uniq compare
      (List.filter (fun z -> not (List.mem z used_zones)) (List.map (zone_of t) others))
  in
  let first_of_zone z =
    List.fold_left
      (fun acc id ->
        if zone_of t id <> z then acc
        else match acc with Some b when order b <= order id -> acc | _ -> Some id)
      None others
  in
  let phase1 =
    List.filter_map first_of_zone
      (List.sort (fun a b -> compare (hash2 (hash2 t.seed (part + 0x2e)) a) (hash2 (hash2 t.seed (part + 0x2e)) b)) missing_zones)
  in
  let phase2 =
    List.sort
      (fun a b -> compare (order a) (order b))
      (List.filter (fun id -> not (List.mem id phase1)) others)
  in
  Array.of_list (phase1 @ phase2)

(* The walk is a pure function of the ring, so each partition's is
   computed on first use and shared by every later call. *)
let handoff t part =
  if part < 0 || part >= t.parts then
    invalid_arg (Printf.sprintf "Store.Ring.handoff: partition %d out of range" part);
  match t.handoffs.(part) with
  | Some walk -> walk
  | None ->
      let walk = compute_handoff t part in
      t.handoffs.(part) <- Some walk;
      walk
