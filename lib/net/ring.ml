(* A FIFO over a growable circular array.  [Stdlib.Queue] allocates a
   3-word cell per push and its [take_opt] a [Some] per pop; here a
   push writes one array slot and a pop reads one, so a ring that has
   reached its working size allocates nothing.

   Freed slots are overwritten with [filler] (the first element ever
   pushed, as in [Event_queue]), so the ring does not keep popped
   elements alive. *)

type 'a t = {
  mutable buf : 'a array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
  mutable filler : 'a array;  (* length 1 after the first push *)
}

let create () = { buf = [||]; head = 0; len = 0; filler = [||] }
let length t = t.len
let is_empty t = t.len = 0

(* Slot of the [i]th element from the head, for [0 <= i < capacity]. *)
let slot t i =
  let j = t.head + i in
  let cap = Array.length t.buf in
  if j >= cap then j - cap else j

let grow t x =
  if Array.length t.filler = 0 then t.filler <- [| x |];
  let cap = Array.length t.buf in
  let bigger = Array.make (if cap = 0 then 8 else 2 * cap) t.filler.(0) in
  for i = 0 to t.len - 1 do
    bigger.(i) <- t.buf.(slot t i)
  done;
  t.buf <- bigger;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t x;
  t.buf.(slot t t.len) <- x;
  t.len <- t.len + 1

let push_front t x =
  if t.len = Array.length t.buf then grow t x;
  let h = if t.head = 0 then Array.length t.buf - 1 else t.head - 1 in
  t.buf.(h) <- x;
  t.head <- h;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Ring.peek: empty";
  t.buf.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.filler.(0);
  t.head <- slot t 1;
  t.len <- t.len - 1;
  x

let iter f t =
  for i = 0 to t.len - 1 do
    f t.buf.(slot t i)
  done

let clear t =
  for i = 0 to t.len - 1 do
    t.buf.(slot t i) <- t.filler.(0)
  done;
  t.head <- 0;
  t.len <- 0

let filter_in_place keep t =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.buf.(slot t i) in
    if keep x then begin
      t.buf.(slot t !kept) <- x;
      incr kept
    end
  done;
  for i = !kept to t.len - 1 do
    t.buf.(slot t i) <- t.filler.(0)
  done;
  let removed = t.len - !kept in
  t.len <- !kept;
  removed
