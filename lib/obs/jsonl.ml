type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

let hex_digits = "0123456789abcdef"

let escape buf s =
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when c < ' ' ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex_digits.[Char.code c lsr 4];
      Buffer.add_char buf hex_digits.[Char.code c land 15]
    | c -> Buffer.add_char buf c
  done

(* Wide enough for [min_int]: 19 digits and a sign.  Each domain has
   its own scratch, so runs on several domains never share one. *)
let max_digits = 20
let digits = Domain.DLS.new_key (fun () -> Bytes.create max_digits)

(* The digits land backwards in the scratch and reach the buffer in one
   copy.  Works on the non-positive magnitude, so [min_int] needs no
   special case. *)
let add_int buf n =
  if n >= 0 && n < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + n))
  else begin
    let d = Domain.DLS.get digits in
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
    Buffer.add_subbytes buf d !i (max_digits - !i)
  end

(* Whole floats render as their digits ([-0.0] as [-0], as [%.0f]
   renders it) so counters exported as floats stay readable; everything
   else gets a round-trippable representation. *)
let add_float buf v =
  if Float.is_integer v && Float.abs v < 1e15 then begin
    if v = 0.0 && Float.sign_bit v then Buffer.add_string buf "-0"
    else add_int buf (int_of_float v)
  end
  else Printf.bprintf buf "%.17g" v

let add_key buf k =
  Buffer.add_char buf '"';
  escape buf k;
  Buffer.add_string buf "\":"

let add_value buf = function
  | Int n -> add_int buf n
  | Float v -> add_float buf v
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'

let line fields =
  let buf = Buffer.create 96 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_key buf k;
      add_value buf v)
    fields;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
