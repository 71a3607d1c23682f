//! The instruction representation: registers, operands, instructions and
//! the program builder.

/// The eight x86 general-purpose registers (32-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Reg {
    Eax,
    Ebx,
    Ecx,
    Edx,
    Esi,
    Edi,
    Ebp,
    Esp,
}

impl Reg {
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// A memory reference: `disp + base + index × scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Base register, if any.
    pub base: Option<Reg>,
    /// Index register and scale (1, 2, 4 or 8), if any.
    pub index: Option<(Reg, u8)>,
    /// Constant displacement.
    pub disp: u32,
}

/// Builds a `[base + disp]` reference.
#[must_use]
pub fn mem(base: Reg, disp: u32) -> MemRef {
    MemRef { base: Some(base), index: None, disp }
}

/// Builds a `[disp + index*scale]` reference (table lookup form).
#[must_use]
pub fn mem_idx(disp: u32, index: Reg, scale: u8) -> MemRef {
    MemRef { base: None, index: Some((index, scale)), disp }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An immediate constant.
    Imm(u32),
    /// A memory location.
    Mem(MemRef),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v)
    }
}

impl From<MemRef> for Operand {
    fn from(m: MemRef) -> Self {
        Operand::Mem(m)
    }
}

/// Two-operand ALU operations (`dst = dst op src`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluOp {
    Xor,
    And,
    Or,
    Add,
    /// Add with carry-in (and carry-out).
    Adc,
    Sub,
    /// Compare: computes `dst - src` for flags only.
    Cmp,
}

impl AluOp {
    pub(crate) const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Xor => "xorl",
            AluOp::And => "andl",
            AluOp::Or => "orl",
            AluOp::Add => "addl",
            AluOp::Adc => "adcl",
            AluOp::Sub => "subl",
            AluOp::Cmp => "cmpl",
        }
    }
}

/// Shift and rotate operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ShiftOp {
    Shr,
    Shl,
    Ror,
    Rol,
}

impl ShiftOp {
    pub(crate) const fn mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Shr => "shrl",
            ShiftOp::Shl => "shll",
            ShiftOp::Ror => "rorl",
            ShiftOp::Rol => "roll",
        }
    }
}

/// A jump target, resolved by the [`Program`] label table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(pub(crate) usize);

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// 32-bit move (`movl`).
    Mov(Operand, Operand),
    /// Byte move, zero-extended into a register or stored from a register's
    /// low byte (`movb`).
    Movb(Operand, Operand),
    /// ALU operation (`dst = dst op src`).
    Alu(AluOp, Operand, Operand),
    /// Shift or rotate by an immediate count.
    Shift(ShiftOp, Operand, u8),
    /// Address computation (`leal`).
    Lea(Reg, MemRef),
    /// Unsigned multiply: `edx:eax = eax × src` (`mull`).
    Mul(Operand),
    /// Increment (`incl`).
    Inc(Operand),
    /// Decrement (`decl`).
    Dec(Operand),
    /// Push onto the stack (`pushl`).
    Push(Operand),
    /// Pop into a register (`popl`).
    Pop(Reg),
    /// Byte-swap a register (`bswap`).
    Bswap(Reg),
    /// Unconditional jump.
    Jmp(Label),
    /// Jump if the zero flag is clear (`jnz`).
    Jnz(Label),
    /// Jump if the zero flag is set (`jz`).
    Jz(Label),
    /// No operation.
    Nop,
    /// Stop the machine.
    Halt,
}

impl Instr {
    /// The x86-style mnemonic used in histograms and listings.
    #[must_use]
    pub const fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Mov(..) => "movl",
            Instr::Movb(..) => "movb",
            Instr::Alu(op, ..) => op.mnemonic(),
            Instr::Shift(op, ..) => op.mnemonic(),
            Instr::Lea(..) => "leal",
            Instr::Mul(..) => "mull",
            Instr::Inc(..) => "incl",
            Instr::Dec(..) => "decl",
            Instr::Push(..) => "pushl",
            Instr::Pop(..) => "popl",
            Instr::Bswap(..) => "bswap",
            Instr::Jmp(..) => "jmp",
            Instr::Jnz(..) => "jnz",
            Instr::Jz(..) => "jz",
            Instr::Nop => "nop",
            Instr::Halt => "halt",
        }
    }
}

/// A program: instructions plus a label table.
///
/// # Examples
///
/// ```
/// use sslperf_isasim::ir::{AluOp, Operand, Program, Reg};
/// use sslperf_isasim::Machine;
///
/// let mut p = Program::new();
/// p.mov(Reg::Eax, 2u32);
/// p.alu(AluOp::Add, Reg::Eax, 40u32);
/// p.halt();
/// let mut m = Machine::new(64);
/// let stats = m.run(&p, 100).unwrap();
/// assert_eq!(m.reg(Reg::Eax), 42);
/// assert_eq!(stats.instructions, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub(crate) code: Vec<Instr>,
    pub(crate) labels: Vec<Option<usize>>,
}

impl Program {
    /// An empty program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.code.push(instr);
        self
    }

    /// Creates an unbound label for forward jumps.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.code.len());
    }

    /// Creates a label bound to the current position (loop heads).
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when no instruction has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Counts consecutive `mov rd, rs ; alu rd, x` pairs — exactly the
    /// sequences a three-operand ISA (`alu rd, rs, x`) would fuse into one
    /// instruction, the paper's §6.2(1) proposal. For straight-line kernels
    /// (the hash block operations are fully unrolled) the static count
    /// equals the dynamic count.
    #[must_use]
    pub fn fusable_mov_alu_pairs(&self) -> usize {
        self.code
            .windows(2)
            .filter(|w| {
                matches!(
                    (&w[0], &w[1]),
                    (
                        Instr::Mov(Operand::Reg(d1), Operand::Reg(_)),
                        Instr::Alu(_, Operand::Reg(d2), _),
                    ) if d1 == d2
                )
            })
            .count()
    }

    /// Renders an assembly-like listing (Table 9 style).
    #[must_use]
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (i, instr) in self.code.iter().enumerate() {
            for (l, pos) in self.labels.iter().enumerate() {
                if *pos == Some(i) {
                    out.push_str(&format!(".L{l}:\n"));
                }
            }
            out.push_str(&format!("    {}\n", render(instr)));
        }
        out
    }

    // --- emit helpers ---

    /// Emits `movl dst, src`.
    pub fn mov(&mut self, dst: impl Into<Operand>, src: impl Into<Operand>) -> &mut Self {
        self.push(Instr::Mov(dst.into(), src.into()))
    }

    /// Emits `movb dst, src`.
    pub fn movb(&mut self, dst: impl Into<Operand>, src: impl Into<Operand>) -> &mut Self {
        self.push(Instr::Movb(dst.into(), src.into()))
    }

    /// Emits an ALU instruction.
    pub fn alu(
        &mut self,
        op: AluOp,
        dst: impl Into<Operand>,
        src: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::Alu(op, dst.into(), src.into()))
    }

    /// Emits a shift/rotate by immediate.
    pub fn shift(&mut self, op: ShiftOp, dst: impl Into<Operand>, count: u8) -> &mut Self {
        self.push(Instr::Shift(op, dst.into(), count))
    }

    /// Emits `mull src`.
    pub fn mul(&mut self, src: impl Into<Operand>) -> &mut Self {
        self.push(Instr::Mul(src.into()))
    }

    /// Emits `incl`.
    pub fn inc(&mut self, dst: impl Into<Operand>) -> &mut Self {
        self.push(Instr::Inc(dst.into()))
    }

    /// Emits `decl`.
    pub fn dec(&mut self, dst: impl Into<Operand>) -> &mut Self {
        self.push(Instr::Dec(dst.into()))
    }

    /// Emits `pushl`.
    pub fn pushl(&mut self, src: impl Into<Operand>) -> &mut Self {
        self.push(Instr::Push(src.into()))
    }

    /// Emits `popl`.
    pub fn popl(&mut self, dst: Reg) -> &mut Self {
        self.push(Instr::Pop(dst))
    }

    /// Emits `bswap`.
    pub fn bswap(&mut self, reg: Reg) -> &mut Self {
        self.push(Instr::Bswap(reg))
    }

    /// Emits `jmp label`.
    pub fn jmp(&mut self, label: Label) -> &mut Self {
        self.push(Instr::Jmp(label))
    }

    /// Emits `jnz label`.
    pub fn jnz(&mut self, label: Label) -> &mut Self {
        self.push(Instr::Jnz(label))
    }

    /// Emits `jz label`.
    pub fn jz(&mut self, label: Label) -> &mut Self {
        self.push(Instr::Jz(label))
    }

    /// Emits `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }

    /// Emits `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }
}

fn render_operand(op: &Operand) -> String {
    match op {
        Operand::Reg(r) => format!("%{}", format!("{r:?}").to_lowercase()),
        Operand::Imm(v) => format!("${v:#x}"),
        Operand::Mem(m) => render_mem(m),
    }
}

fn render_mem(m: &MemRef) -> String {
    let mut s = String::new();
    if m.disp != 0 || (m.base.is_none() && m.index.is_none()) {
        s.push_str(&format!("{:#x}", m.disp));
    }
    s.push('(');
    if let Some(b) = m.base {
        s.push_str(&format!("%{}", format!("{b:?}").to_lowercase()));
    }
    if let Some((i, scale)) = m.index {
        s.push_str(&format!(",%{},{scale}", format!("{i:?}").to_lowercase()));
    }
    s.push(')');
    s
}

fn render(instr: &Instr) -> String {
    // AT&T order (src, dst), as the paper's Table 9 prints.
    match instr {
        Instr::Mov(dst, src) | Instr::Movb(dst, src) => {
            format!("{} {}, {}", instr.mnemonic(), render_operand(src), render_operand(dst))
        }
        Instr::Alu(_, dst, src) => {
            format!("{} {}, {}", instr.mnemonic(), render_operand(src), render_operand(dst))
        }
        Instr::Shift(_, dst, count) => {
            format!("{} ${count}, {}", instr.mnemonic(), render_operand(dst))
        }
        Instr::Lea(dst, src) => {
            format!("leal {}, %{}", render_mem(src), format!("{dst:?}").to_lowercase())
        }
        Instr::Mul(src) => format!("mull {}", render_operand(src)),
        Instr::Inc(op) | Instr::Dec(op) | Instr::Push(op) => {
            format!("{} {}", instr.mnemonic(), render_operand(op))
        }
        Instr::Pop(r) => format!("popl %{}", format!("{r:?}").to_lowercase()),
        Instr::Bswap(r) => format!("bswap %{}", format!("{r:?}").to_lowercase()),
        Instr::Jmp(l) | Instr::Jnz(l) | Instr::Jz(l) => {
            format!("{} .L{}", instr.mnemonic(), l.0)
        }
        Instr::Nop => "nop".to_owned(),
        Instr::Halt => "halt".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_conversions() {
        let _: Operand = Reg::Eax.into();
        let _: Operand = 5u32.into();
        let _: Operand = mem(Reg::Ebx, 4).into();
    }

    #[test]
    fn mnemonics() {
        assert_eq!(Instr::Mov(Reg::Eax.into(), 1u32.into()).mnemonic(), "movl");
        assert_eq!(Instr::Alu(AluOp::Adc, Reg::Eax.into(), 0u32.into()).mnemonic(), "adcl");
        assert_eq!(Instr::Shift(ShiftOp::Rol, Reg::Eax.into(), 3).mnemonic(), "roll");
        assert_eq!(Instr::Bswap(Reg::Ecx).mnemonic(), "bswap");
    }

    #[test]
    fn listing_renders_labels_and_att_order() {
        let mut p = Program::new();
        let top = p.here();
        p.mov(Reg::Eax, mem(Reg::Ebx, 8));
        p.dec(Reg::Ecx);
        p.jnz(top);
        p.halt();
        let listing = p.listing();
        assert!(listing.contains(".L0:"), "{listing}");
        assert!(listing.contains("movl 0x8(%ebx), %eax"), "{listing}");
        assert!(listing.contains("jnz .L0"), "{listing}");
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut p = Program::new();
        let l = p.label();
        p.bind(l);
        p.bind(l);
    }

    #[test]
    fn fusable_pairs_detected() {
        let mut p = Program::new();
        p.mov(Reg::Esi, Reg::Ebx); // fusable with the next alu
        p.alu(AluOp::And, Reg::Esi, Reg::Ecx);
        p.mov(Reg::Edi, mem(Reg::Ebx, 0)); // memory source: not fusable
        p.alu(AluOp::Xor, Reg::Edi, Reg::Ecx);
        p.mov(Reg::Eax, Reg::Ebx); // different alu dst: not fusable
        p.alu(AluOp::Or, Reg::Ecx, Reg::Eax);
        assert_eq!(p.fusable_mov_alu_pairs(), 1);
    }

    #[test]
    fn program_len() {
        let mut p = Program::new();
        assert!(p.is_empty());
        p.nop().nop();
        assert_eq!(p.len(), 2);
    }
}
