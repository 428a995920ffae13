module Alert = Tivaware_tiv.Alert

let default_ts = 0.6
let default_tl = 2.0

let placement cfg ~predicted ~engine ?(ts = default_ts)
    ?(tl = default_tl) () =
  fun node peer delay ->
    let measured_entry = (Ring.ring_of cfg delay, delay) in
    let r =
      Alert.probed_ratio ~label:"tiv-aware" ~engine ~predicted node peer
    in
    if Float.is_nan r || (r >= ts && r <= tl) then [ measured_entry ]
    else begin
      let p = predicted node peer in
      let predicted_ring = Ring.ring_of cfg p in
      if predicted_ring = fst measured_entry then [ measured_entry ]
      else [ measured_entry; (predicted_ring, p) ]
    end

let fallback overlay ~predicted ~engine ?(ts = default_ts) () :
    Query.fallback =
 fun ~current ~target ~measured:_ ->
  let r =
    Alert.probed_ratio ~label:"tiv-aware" ~engine ~predicted current target
  in
  if Float.is_nan r || r >= ts then []
  else begin
    (* The measured edge to the target looks TIV-inflated: re-select
       ring members around the predicted delay instead. *)
    let beta = (Overlay.config overlay).Ring.beta in
    let dp = predicted current target in
    let lo = (1. -. beta) *. dp and hi = (1. +. beta) *. dp in
    List.filter
      (fun m -> m.Overlay.delay >= lo && m.Overlay.delay <= hi)
      (Overlay.all_members overlay current)
  end
