(** Instruction set of the simulated machine.

    The machine is a small 32-bit load/store architecture with a real,
    in-memory call stack: [Call] pushes the return address into stack memory
    and [Ret] pops it back, so a buffer overflow that reaches the saved
    return-address slot genuinely hijacks control flow — the property every
    Sweeper analysis depends on.

    Instructions occupy {!instr_size} bytes of address space each, so code
    addresses look and behave like the byte addresses the paper reports
    (e.g. the faulting store "0x4f0f0907 in strcat"). *)

(** General-purpose registers. [SP] and [FP] take part in the normal
    register file; the calling convention (see {!Minic.Codegen}) gives them
    their stack/frame roles. *)
type reg =
  | R0  (** return value / first scratch *)
  | R1
  | R2
  | R3
  | R4
  | R5
  | R6
  | R7
  | R8
  | R9
  | SP  (** stack pointer (grows towards lower addresses) *)
  | FP  (** frame pointer *)

let reg_index = function
  | R0 -> 0 | R1 -> 1 | R2 -> 2 | R3 -> 3 | R4 -> 4 | R5 -> 5
  | R6 -> 6 | R7 -> 7 | R8 -> 8 | R9 -> 9 | SP -> 10 | FP -> 11

let num_regs = 12

let reg_of_index = function
  | 0 -> R0 | 1 -> R1 | 2 -> R2 | 3 -> R3 | 4 -> R4 | 5 -> R5
  | 6 -> R6 | 7 -> R7 | 8 -> R8 | 9 -> R9 | 10 -> SP | 11 -> FP
  | n -> invalid_arg (Printf.sprintf "Isa.reg_of_index: %d" n)

let reg_name = function
  | R0 -> "r0" | R1 -> "r1" | R2 -> "r2" | R3 -> "r3" | R4 -> "r4"
  | R5 -> "r5" | R6 -> "r6" | R7 -> "r7" | R8 -> "r8" | R9 -> "r9"
  | SP -> "sp" | FP -> "fp"

(** Right-hand operands: an immediate, a register, or a symbol whose address
    is resolved when the unit is loaded (symbols are how position-independent
    code units survive address-space randomization). *)
type operand =
  | Imm of int
  | Reg of reg
  | Sym of string

(** Branch/call targets. [Lbl] targets are resolved to absolute addresses at
    load time. *)
type target =
  | Addr of int
  | Lbl of string

(** Conditions evaluated against the flags set by the last [Cmp]. Unsigned
    variants exist because address comparisons in the runtime need them. *)
type cond =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Ult
  | Uge

type binop = Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr

(** The instruction set. Loads and stores exist in word (4-byte) and byte
    granularity; byte stores are what string routines use, which is why a
    string overflow corrupts adjacent memory one byte at a time exactly as
    on real hardware. *)
type instr =
  | Mov of reg * operand               (** rd := op *)
  | Bin of binop * reg * operand       (** rd := rd <op> src *)
  | Not of reg
  | Neg of reg
  | Load of reg * reg * int            (** rd := mem32[rs + off] *)
  | Loadb of reg * reg * int           (** rd := mem8[rs + off] (zero-extended) *)
  | Store of reg * int * reg           (** mem32[rbase + off] := rs *)
  | Storeb of reg * int * reg          (** mem8[rbase + off] := rs & 0xff *)
  | Push of operand                    (** sp -= 4; mem32[sp] := op *)
  | Pop of reg                         (** rd := mem32[sp]; sp += 4 *)
  | Cmp of reg * operand               (** set flags from rd - op *)
  | Jmp of target
  | Jcc of cond * target
  | Call of target                     (** push return address; jump *)
  | CallInd of reg                     (** indirect call through register *)
  | Ret                                (** pop return address from the stack *)
  | Syscall of int                     (** service request; args in r0..r3 *)
  | Halt
  | Nop

(** Each instruction occupies this many bytes of code address space. *)
let instr_size = 4

let is_terminator = function
  | Jmp _ | Jcc _ | Call _ | CallInd _ | Ret | Halt -> true
  | Mov _ | Bin _ | Not _ | Neg _ | Load _ | Loadb _ | Store _ | Storeb _
  | Push _ | Pop _ | Cmp _ | Syscall _ | Nop ->
    false

let cond_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le"
  | Gt -> "gt" | Ge -> "ge" | Ult -> "ult" | Uge -> "uge"

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"

(* 32-bit arithmetic helpers shared by the interpreter and the analyses. *)

let word_mask = 0xFFFFFFFF

(** Truncate to an unsigned 32-bit value. *)
let to_u32 v = v land word_mask

(** Sign-extend a 32-bit value to an OCaml int. *)
let to_s32 v =
  let v = v land word_mask in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

(** Evaluate a binary operation with 32-bit wrap-around semantics.
    Division and modulus by zero raise [Division_by_zero] so the CPU can
    turn them into machine faults. *)
let eval_binop op a b =
  let a32 = to_s32 a and b32 = to_s32 b in
  let r =
    match op with
    | Add -> a32 + b32
    | Sub -> a32 - b32
    | Mul -> a32 * b32
    | Div -> if b32 = 0 then raise Division_by_zero else a32 / b32
    | Mod -> if b32 = 0 then raise Division_by_zero else a32 mod b32
    | And -> a32 land b32
    | Or -> a32 lor b32
    | Xor -> a32 lxor b32
    | Shl -> a32 lsl (b32 land 31)
    | Shr -> to_u32 a32 lsr (b32 land 31)
  in
  to_u32 r

(** Evaluate a condition against the two operands of the last [Cmp]. *)
let eval_cond c a b =
  let sa = to_s32 a and sb = to_s32 b in
  let ua = to_u32 a and ub = to_u32 b in
  match c with
  | Eq -> sa = sb
  | Ne -> sa <> sb
  | Lt -> sa < sb
  | Le -> sa <= sb
  | Gt -> sa > sb
  | Ge -> sa >= sb
  | Ult -> ua < ub
  | Uge -> ua >= ub
