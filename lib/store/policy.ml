module Engine = Tivaware_measure.Engine
module Alert = Tivaware_tiv.Alert
module Query = Tivaware_meridian.Query

type kind =
  | Naive of (int * int, float) Hashtbl.t
  | Coordinate of (int -> int -> float)
  | Probe
  | Alert_aware of { predicted : int -> int -> float; threshold : float }

type t = kind

let naive () = Naive (Hashtbl.create 256)
let coordinate predicted = Coordinate predicted
let probe () = Probe

let alert ?(threshold = Alert.default_threshold) predicted =
  Alert.validate_threshold "Store.Policy.alert" threshold;
  Alert_aware { predicted; threshold }

let name = function
  | Naive _ -> "naive"
  | Coordinate _ -> "coordinate"
  | Probe -> "probe"
  | Alert_aware _ -> "alert"

type choice = {
  device : int;
  node : int;
  estimate : float;
  probes : int;
  skipped_flagged : int;
}

(* First strict minimum in candidate order — the shared tie-break rule
   that makes policies agree whenever their rankings agree. *)
let argmin_by estimates candidates =
  let best = ref None in
  Array.iteri
    (fun k (dev, node) ->
      let e = estimates.(k) in
      if not (Float.is_nan e) then
        match !best with
        | Some (_, _, be) when be <= e -> ()
        | _ -> best := Some (dev, node, e))
    candidates;
  !best

let select ?(label = "store") t ~engine ~client ~candidates =
  if Array.length candidates = 0 then None
  else
    match t with
    | Coordinate predicted ->
        let est = Array.map (fun (_, node) -> predicted client node) candidates in
        Option.map
          (fun (device, node, estimate) ->
            { device; node; estimate; probes = 0; skipped_flagged = 0 })
          (argmin_by est candidates)
    | Naive cache ->
        let probes = ref 0 in
        let est =
          Array.map
            (fun (_, node) ->
              match Hashtbl.find_opt cache (client, node) with
              | Some e -> e
              | None ->
                  incr probes;
                  let d = Engine.rtt ~label engine client node in
                  if not (Float.is_nan d) then Hashtbl.replace cache (client, node) d;
                  d)
            candidates
        in
        Option.map
          (fun (device, node, estimate) ->
            { device; node; estimate; probes = !probes; skipped_flagged = 0 })
          (argmin_by est candidates)
    | Probe ->
        let nodes = Array.map snd candidates in
        Option.bind (Query.closest_among ~label engine ~target:client ~candidates:nodes)
          (fun (node, estimate) ->
            Array.to_seq candidates
            |> Seq.find (fun (_, n) -> n = node)
            |> Option.map (fun (device, _) ->
                   {
                     device;
                     node;
                     estimate;
                     probes = Array.length nodes;
                     skipped_flagged = 0;
                   }))
    | Alert_aware { predicted; threshold } ->
        (* Walk candidates by ascending prediction; one verification
           probe each; take the first clean one.  Stable sort keeps
           candidate order on equal predictions, matching the other
           policies' tie-break. *)
        let order = Array.mapi (fun k (_, node) -> (k, predicted client node)) candidates in
        Array.stable_sort
          (fun (_, a) (_, b) ->
            match (Float.is_nan a, Float.is_nan b) with
            | true, true -> 0
            | true, false -> 1  (* unpredicted candidates go last *)
            | false, true -> -1
            | false, false -> compare a b)
          order;
        let probes = ref 0 and skipped = ref 0 in
        let best_flagged = ref None in
        let clean = ref None in
        let k = ref 0 in
        while !clean = None && !k < Array.length order do
          let idx, _ = order.(!k) in
          let device, node = candidates.(idx) in
          incr probes;
          (match
             Alert.alert_pair ~label ~engine ~predicted ~threshold client node
           with
          | `Unmeasurable -> ()
          | `Clean d -> clean := Some (device, node, d)
          | `Flagged d -> (
              incr skipped;
              match !best_flagged with
              | Some (_, _, bd) when bd <= d -> ()
              | _ -> best_flagged := Some (device, node, d)));
          incr k
        done;
        Option.map
          (fun (device, node, estimate) ->
            { device; node; estimate; probes = !probes; skipped_flagged = !skipped })
          (match !clean with Some c -> Some c | None -> !best_flagged)
