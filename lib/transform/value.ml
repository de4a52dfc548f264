(* The value universe of the skeleton-program interpreter: enough structure
   to give every SCL AST node a checkable meaning, so transformation rules
   can be property-tested for semantics preservation. *)

type t =
  | Int of int
  | Float of float
  | Pair of t * t
  | Arr of t array  (* both ParArray and nested group arrays *)

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let as_arr = function
  | Arr a -> a
  | Int _ | Float _ | Pair _ -> type_error "expected an array value"

let as_int = function
  | Int i -> i
  | Float _ | Pair _ | Arr _ -> type_error "expected an integer value"

let as_float = function
  | Float f -> f
  | Int _ | Pair _ | Arr _ -> type_error "expected a float value"

let as_pair = function
  | Pair (a, b) -> (a, b)
  | Int _ | Float _ | Arr _ -> type_error "expected a pair value"

let of_int_array a = Arr (Array.map (fun i -> Int i) a)
let to_int_array v = Array.map as_int (as_arr v)

let rec equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y ->
      (* Bitwise-equal first so identical infinities compare equal (the
         relative test below yields nan-vs-nan on inf - inf). *)
      x = y
      || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | Pair (x1, y1), Pair (x2, y2) -> equal x1 x2 && equal y1 y2
  | Arr x, Arr y -> Array.length x = Array.length y && Array.for_all2 equal x y
  | (Int _ | Float _ | Pair _ | Arr _), _ -> false

let rec bitwise_equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Pair (x1, y1), Pair (x2, y2) -> bitwise_equal x1 x2 && bitwise_equal y1 y2
  | Arr x, Arr y -> Array.length x = Array.length y && Array.for_all2 bitwise_equal x y
  | (Int _ | Float _ | Pair _ | Arr _), _ -> false

let rec pp ppf = function
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | Arr a -> Fmt.pf ppf "<%a>" Fmt.(array ~sep:(any ", ") pp) a

let rec depth = function
  | Int _ | Float _ -> 0
  | Pair (a, b) -> max (depth a) (depth b)
  | Arr a -> 1 + Array.fold_left (fun acc v -> max acc (depth v)) 0 a
