type t = {
  requests : int;
  issued : int;
  lost : int;
  retried : int;
  failed : int;
  denied : int;
  down : int;
  unmeasured : int;
  hits : int;
  stale : int;
  misses : int;
  evicted : int;
  probe_ms : float;
  per_label : (string * int) list;
}

let label_count t label = Option.value ~default:0 (List.assoc_opt label t.per_label)
let labels t = t.per_label

let pp fmt t =
  Format.fprintf fmt
    "requests=%d issued=%d lost=%d retried=%d failed=%d denied=%d down=%d \
     unmeasured=%d cache hit/stale/miss=%d/%d/%d evicted=%d probe_ms=%.0f"
    t.requests t.issued t.lost t.retried t.failed t.denied t.down t.unmeasured
    t.hits t.stale t.misses t.evicted t.probe_ms;
  match t.per_label with
  | [] -> ()
  | ls ->
    Format.fprintf fmt " |";
    List.iter (fun (l, c) -> Format.fprintf fmt " %s=%d" l c) ls
