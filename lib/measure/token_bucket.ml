type t = {
  capacity : float;
  rate : float;  (* tokens per logical second *)
  mutable tokens : float;
  mutable stamp : float;  (* last refill time *)
}

let create ~capacity ~rate = { capacity; rate; tokens = capacity; stamp = 0. }

let refill t ~now =
  if now > t.stamp then begin
    t.tokens <- Float.min t.capacity (t.tokens +. (t.rate *. (now -. t.stamp)));
    t.stamp <- now
  end

let take t ~now =
  refill t ~now;
  if t.tokens >= 1. then begin
    t.tokens <- t.tokens -. 1.;
    true
  end
  else false

let take_pair a b ~now =
  refill a ~now;
  refill b ~now;
  if a.tokens >= 1. && b.tokens >= 1. then begin
    a.tokens <- a.tokens -. 1.;
    b.tokens <- b.tokens -. 1.;
    true
  end
  else false
