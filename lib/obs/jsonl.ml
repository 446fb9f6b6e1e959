type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Whole floats render without an exponent so counters exported as
   floats stay readable; everything else gets a round-trippable
   representation. *)
let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let add_key buf k =
  Buffer.add_char buf '"';
  escape buf k;
  Buffer.add_string buf "\":"

let add_value buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float v -> Buffer.add_string buf (float_repr v)
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
