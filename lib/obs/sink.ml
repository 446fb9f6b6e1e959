type t =
  | Null
  | Buf of Buffer.t
  | Custom of (string -> unit)

let null = Null
let buffer () = Buf (Buffer.create 4096)
let custom f = Custom f

let write t s =
  match t with
  | Null -> ()
  | Buf b -> Buffer.add_string b s
  | Custom f -> f s

let buffer_of = function
  | Buf b -> Some b
  | Null | Custom _ -> None

let contents = function
  | Buf b -> Some (Buffer.contents b)
  | Null | Custom _ -> None
