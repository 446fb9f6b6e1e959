type t = { live : bool; buf : Buffer.t }

let disabled = { live = false; buf = Buffer.create 1 }
let create () = { live = true; buf = Buffer.create 4096 }

let[@inline] enabled t = t.live

type field = Arg of string | Fixed of string * Jsonl.value

(* [k1]..[k3] each hold the fixed fields preceding one argument and
   that argument's [,"key":]; [k1] also starts with the comp and ev
   fields.  Unused chunks are empty. *)
type event = {
  trace : t;
  arity : int;
  k1 : string;
  k2 : string;
  k3 : string;
  tail : string;  (* fixed fields after the last argument, then [}\n] *)
}

let event trace ~comp ~ev fields =
  let b = Buffer.create 64 in
  let key k =
    Buffer.add_char b ',';
    Jsonl.add_key b k
  in
  let fixed k v =
    key k;
    Jsonl.add_value b v
  in
  fixed "comp" (Jsonl.Str comp);
  fixed "ev" (Jsonl.Str ev);
  let chunks =
    List.fold_left
      (fun chunks -> function
        | Fixed (k, v) ->
          fixed k v;
          chunks
        | Arg k ->
          key k;
          let chunk = Buffer.contents b in
          Buffer.clear b;
          chunk :: chunks)
      [] fields
  in
  Buffer.add_string b "}\n";
  let tail = Buffer.contents b in
  match List.rev chunks with
  | [ k1 ] -> { trace; arity = 1; k1; k2 = ""; k3 = ""; tail }
  | [ k1; k2 ] -> { trace; arity = 2; k1; k2; k3 = ""; tail }
  | [ k1; k2; k3 ] -> { trace; arity = 3; k1; k2; k3; tail }
  | _ -> invalid_arg "Obs.Trace.event: needs 1 to 3 Arg fields"

let start e ~arity ~t_ns =
  if e.arity <> arity then invalid_arg "Obs.Trace.emit: arity mismatch";
  Buffer.add_string e.trace.buf "{\"t\":";
  Jsonl.add_int e.trace.buf t_ns;
  Buffer.add_string e.trace.buf e.k1

let finish e = Buffer.add_string e.trace.buf e.tail

let emit1 e ~t_ns a =
  if e.trace.live then begin
    start e ~arity:1 ~t_ns;
    Jsonl.add_int e.trace.buf a;
    finish e
  end

let emit2 e ~t_ns a b =
  if e.trace.live then begin
    start e ~arity:2 ~t_ns;
    Jsonl.add_int e.trace.buf a;
    Buffer.add_string e.trace.buf e.k2;
    Jsonl.add_int e.trace.buf b;
    finish e
  end

let emit3 e ~t_ns a b c =
  if e.trace.live then begin
    start e ~arity:3 ~t_ns;
    Jsonl.add_int e.trace.buf a;
    Buffer.add_string e.trace.buf e.k2;
    Jsonl.add_int e.trace.buf b;
    Buffer.add_string e.trace.buf e.k3;
    Jsonl.add_int e.trace.buf c;
    finish e
  end

let contents t = if t.live then Some (Buffer.contents t.buf) else None
