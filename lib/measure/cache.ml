(* TTL'd RTT cache with optional capacity-bounded LRU eviction.
   Recency is an intrusive circular doubly-linked list over the entries
   threaded through a sentinel (sentinel.next = most recently used,
   sentinel.prev = least recently used), so every operation is O(1) and
   — unlike option-linked lists — relinking an entry on a hit allocates
   nothing.  Pairs are packed into one int key ([min lsl 31 lor max]),
   so lookups build no tuple. *)

type entry = {
  key : int;
  mutable value : float;
  mutable measured : float;
  mutable prev : entry;  (* toward the head (more recent) *)
  mutable next : entry;  (* toward the tail (least recent) *)
}

type t = {
  ttl : float;
  capacity : int option;
  entries : (int, entry) Hashtbl.t;
  sentinel : entry;
}

let make_sentinel () =
  let rec s = { key = min_int; value = nan; measured = nan; prev = s; next = s } in
  s

let create ?capacity ~ttl () =
  if Float.is_nan ttl || not (ttl > 0.) then
    invalid_arg (Printf.sprintf "Cache.create: ttl must be positive (got %g)" ttl);
  (match capacity with
  | Some c when c < 1 ->
    invalid_arg
      (Printf.sprintf "Cache.create: capacity must be >= 1 (got %d)" c)
  | _ -> ());
  {
    ttl;
    capacity;
    entries = Hashtbl.create 256;
    sentinel = make_sentinel ();
  }


let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  let s = t.sentinel in
  e.prev <- s;
  e.next <- s.next;
  s.next.prev <- e;
  s.next <- e

let touch t e =
  if t.sentinel.next != e then begin
    unlink e;
    push_front t e
  end

let drop t e =
  unlink e;
  Hashtbl.remove t.entries e.key

type lookup = Hit of float | Stale | Miss

(* Unordered pair packed into one int; node indices are array indices,
   well under the 2^31 this is unique up to. *)
let key i j = if i < j then (i lsl 31) lor j else (j lsl 31) lor i

let code_hit = 0
let code_stale = 1
let code_miss = 2

let find_code t ~now ~into i j =
  match Hashtbl.find t.entries (key i j) with
  | e ->
    if now -. e.measured <= t.ttl then begin
      touch t e;
      into.(0) <- e.value;
      code_hit
    end
    else begin
      drop t e;
      code_stale
    end
  | exception Not_found -> code_miss

let find t ~now i j =
  let buf = [| nan |] in
  let c = find_code t ~now ~into:buf i j in
  if c = code_hit then Hit buf.(0) else if c = code_stale then Stale else Miss

let store t ~now i j value =
  if Float.is_nan value then 0
  else begin
    let k = key i j in
    match Hashtbl.find t.entries k with
    | e ->
      e.value <- value;
      e.measured <- now;
      touch t e;
      0
    | exception Not_found ->
      let s = t.sentinel in
      let e = { key = k; value; measured = now; prev = s; next = s } in
      Hashtbl.replace t.entries k e;
      push_front t e;
      (match t.capacity with
      | Some cap when Hashtbl.length t.entries > cap ->
        let lru = s.prev in
        if lru != s then begin
          drop t lru;
          1
        end
        else 0
      | _ -> 0)
  end

let length t = Hashtbl.length t.entries
