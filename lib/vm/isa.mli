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

val reg_index : reg -> int
(** Dense index in [0, num_regs): register files and analysis lattices are
    arrays indexed by this. *)

val num_regs : int

val reg_of_index : int -> reg
(** Inverse of {!reg_index}; raises [Invalid_argument] out of range. *)

val reg_name : reg -> string

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

val instr_size : int
(** Bytes of code address space per instruction. *)

val is_terminator : instr -> bool
(** Control transfers ([Jmp], [Jcc], [Call], [CallInd], [Ret], [Halt]):
    the instructions that end a basic block. *)

val cond_name : cond -> string
val binop_name : binop -> string

(** {1 32-bit arithmetic helpers} shared by the interpreter and the
    analyses. *)

val word_mask : int

val to_u32 : int -> int
(** Truncate to an unsigned 32-bit value. *)

val to_s32 : int -> int
(** Sign-extend a 32-bit value to an OCaml int. *)

val eval_binop : binop -> int -> int -> int
(** Evaluate a binary operation with 32-bit wrap-around semantics.
    Division and modulus by zero raise [Division_by_zero] so the CPU can
    turn them into machine faults. *)

val eval_cond : cond -> int -> int -> bool
(** Evaluate a condition against the two operands of the last [Cmp]. *)
