type t = {
  live : bool;
  sink : Sink.t;
  buf : Buffer.t;  (* the sink's own buffer, or a one-line scratch *)
  direct : bool;  (* [buf] belongs to the sink: lines land in place *)
  digits : Bytes.t;  (* scratch for the integer writer *)
}

(* Wide enough for [min_int]: 19 digits and a sign. *)
let max_digits = 20

let disabled =
  {
    live = false;
    sink = Sink.null;
    buf = Buffer.create 1;
    direct = true;
    digits = Bytes.create 0;
  }

let create ~sink () =
  let buf, direct =
    match Sink.buffer_of sink with
    | Some b -> (b, true)
    | None -> (Buffer.create 256, false)
  in
  { live = true; sink; buf; direct; digits = Bytes.create max_digits }

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

(* Decimal digits straight into the line.  Works on the non-positive
   magnitude, so [min_int] needs no special case. *)
let add_int t n =
  if n >= 0 && n < 10 then Buffer.add_char t.buf (Char.unsafe_chr (48 + n))
  else begin
    let d = t.digits in
    let m = ref (if n < 0 then n else -n) in
    let i = ref max_digits in
    while !m <> 0 do
      let q = !m / 10 in
      decr i;
      Bytes.unsafe_set d !i (Char.unsafe_chr (48 + ((q * 10) - !m)));
      m := q
    done;
    if n < 0 then begin
      decr i;
      Bytes.unsafe_set d !i '-'
    end;
    Buffer.add_subbytes t.buf d !i (max_digits - !i)
  end

let start e ~arity ~t_ns =
  if e.arity <> arity then invalid_arg "Obs.Trace.emit: arity mismatch";
  Buffer.add_string e.trace.buf "{\"t\":";
  add_int e.trace t_ns;
  Buffer.add_string e.trace.buf e.k1

let finish e =
  let t = e.trace in
  Buffer.add_string t.buf e.tail;
  if not t.direct then begin
    Sink.write t.sink (Buffer.contents t.buf);
    Buffer.clear t.buf
  end

let emit1 e ~t_ns a =
  if e.trace.live then begin
    start e ~arity:1 ~t_ns;
    add_int e.trace a;
    finish e
  end

let emit2 e ~t_ns a b =
  if e.trace.live then begin
    start e ~arity:2 ~t_ns;
    add_int e.trace a;
    Buffer.add_string e.trace.buf e.k2;
    add_int e.trace b;
    finish e
  end

let emit3 e ~t_ns a b c =
  if e.trace.live then begin
    start e ~arity:3 ~t_ns;
    add_int e.trace a;
    Buffer.add_string e.trace.buf e.k2;
    add_int e.trace b;
    Buffer.add_string e.trace.buf e.k3;
    add_int e.trace c;
    finish e
  end

let contents t = Sink.contents t.sink
