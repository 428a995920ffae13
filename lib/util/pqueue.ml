type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow q entry =
  let cap = Array.length q.data in
  if q.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let nd = Array.make ncap entry in
    Array.blit q.data 0 nd 0 q.size;
    q.data <- nd
  end

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less q.data.(i) q.data.(parent) then begin
      let tmp = q.data.(i) in
      q.data.(i) <- q.data.(parent);
      q.data.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && less q.data.(l) q.data.(!smallest) then smallest := l;
  if r < q.size && less q.data.(r) q.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = q.data.(i) in
    q.data.(i) <- q.data.(!smallest);
    q.data.(!smallest) <- tmp;
    sift_down q !smallest
  end

let push q prio value =
  let entry = { prio; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  grow q entry;
  q.data.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.data.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.data.(0) <- q.data.(q.size);
      sift_down q 0
    end;
    Some (top.prio, top.value)
  end

let min_prio q = if q.size = 0 then infinity else q.data.(0).prio
