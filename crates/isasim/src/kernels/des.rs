//! DES and 3DES block encryption in IR.
//!
//! The three parts of the paper's Table 6 are all present: a straight-line
//! *initial permutation* compiled from the IP table (shift/AND/OR bit
//! moves), the 16 (or 3×16) *substitution rounds* over the eight fused SP
//! tables, and the *final permutation*. 3DES shares one IP/FP pair around
//! 48 rounds, exactly like the native implementation.

use crate::ir::{mem_idx, AluOp, MemRef, Program, Reg, ShiftOp};
use crate::kernels::KernelRun;
use crate::Machine;
use sslperf_ciphers::{analysis, Des};

/// SP tables base: eight tables of 64 × u32.
const SPT: u32 = 0x4000;
/// Key schedule base: 16 rounds × 8 subkey bytes per DES instance.
const KS: u32 = 0x5000;
/// Input block address (8 bytes).
const DATA: u32 = 0x6000;
/// Output block address (8 bytes).
const OUT: u32 = 0x6100;

fn mem_abs(addr: u32) -> MemRef {
    MemRef { base: None, index: None, disp: addr }
}

/// Emits a straight-line 64-bit permutation from `(esi, edi)` (hi, lo) into
/// `(eax, edx)`, compiled from a 1-based-from-MSB index table.
fn emit_permutation(p: &mut Program, table: &[u8; 64]) {
    p.mov(Reg::Eax, 0u32);
    p.mov(Reg::Edx, 0u32);
    for (k, &src) in table.iter().enumerate() {
        let (src_reg, bit_in_word) =
            if src <= 32 { (Reg::Esi, src - 1) } else { (Reg::Edi, src - 33) };
        let dst_reg = if k < 32 { Reg::Eax } else { Reg::Edx };
        let dst_bit = (k % 32) as u8; // 0 = MSB position
        p.mov(Reg::Ebx, src_reg);
        // Bring the source bit (bit_in_word counted from the MSB) to bit 0.
        let shr = 31 - bit_in_word;
        if shr > 0 {
            p.shift(ShiftOp::Shr, Reg::Ebx, shr);
        }
        p.alu(AluOp::And, Reg::Ebx, 1u32);
        let shl = 31 - dst_bit;
        if shl > 0 {
            p.shift(ShiftOp::Shl, Reg::Ebx, shl);
        }
        p.alu(AluOp::Or, dst_reg, Reg::Ebx);
    }
    // Move the result back into (esi, edi).
    p.mov(Reg::Esi, Reg::Eax);
    p.mov(Reg::Edi, Reg::Edx);
}

/// Emits 16 Feistel rounds reading subkeys at `ks_base`, with emit-time
/// (L, R) role tracking. `reversed` walks the schedule backwards
/// (decryption direction, used for the middle 3DES pass).
///
/// Roles on entry: `esi` = L, `edi` = R; on exit the final swap is applied
/// (standard end-of-cipher half exchange).
fn emit_rounds(p: &mut Program, ks_base: u32, reversed: bool) {
    let mut l = Reg::Esi;
    let mut r = Reg::Edi;
    for round in 0..16u32 {
        let idx = if reversed { 15 - round } else { round };
        // t = ror(R, 1): the rotated expansion window base.
        p.mov(Reg::Ebx, r);
        p.shift(ShiftOp::Ror, Reg::Ebx, 1);
        for chunk in 0..8u8 {
            p.mov(Reg::Eax, Reg::Ebx);
            if chunk > 0 {
                p.shift(ShiftOp::Rol, Reg::Eax, 4 * chunk);
            }
            p.shift(ShiftOp::Shr, Reg::Eax, 26);
            p.movb(Reg::Ecx, mem_abs(ks_base + 8 * idx + u32::from(chunk)));
            p.alu(AluOp::Xor, Reg::Eax, Reg::Ecx);
            p.alu(AluOp::Xor, l, mem_idx(SPT + 256 * u32::from(chunk), Reg::Eax, 4));
        }
        std::mem::swap(&mut l, &mut r);
    }
    // After the loop the roles already ended swapped 16 times (even), so
    // (l, r) = (L16, R16); the cipher output before FP is (R16, L16).
    // Materialize that order into (esi, edi).
    if l == Reg::Esi {
        // swap register contents: esi <-> edi via ebx.
        p.mov(Reg::Ebx, Reg::Esi);
        p.mov(Reg::Esi, Reg::Edi);
        p.mov(Reg::Edi, Reg::Ebx);
    }
}

/// Emits a full DES (or, with three schedules, 3DES) encryption:
/// IP → rounds → FP, storing the result at [`OUT`].
fn emit_cipher(p: &mut Program, passes: &[(u32, bool)]) {
    // Load the block big-endian into (esi, edi).
    p.mov(Reg::Esi, mem_abs(DATA));
    p.bswap(Reg::Esi);
    p.mov(Reg::Edi, mem_abs(DATA + 4));
    p.bswap(Reg::Edi);
    emit_permutation(p, analysis::des_ip_table());
    for &(ks_base, reversed) in passes {
        emit_rounds(p, ks_base, reversed);
    }
    emit_permutation(p, analysis::des_fp_table());
    p.bswap(Reg::Esi);
    p.mov(mem_abs(OUT), Reg::Esi);
    p.bswap(Reg::Edi);
    p.mov(mem_abs(OUT + 4), Reg::Edi);
    p.halt();
}

/// The single-DES encryption program.
#[must_use]
pub fn des_program() -> Program {
    let mut p = Program::new();
    emit_cipher(&mut p, &[(KS, false)]);
    p
}

/// The 3DES (EDE) encryption program: one IP/FP pair around 48 rounds.
#[must_use]
pub fn des3_program() -> Program {
    let mut p = Program::new();
    emit_cipher(&mut p, &[(KS, false), (KS + 128, true), (KS + 256, false)]);
    p
}

fn load_common(machine: &mut Machine, block: &[u8; 8]) {
    let sp = analysis::des_sp_tables();
    for (t, table) in sp.iter().enumerate() {
        for (i, v) in table.iter().enumerate() {
            machine.write_u32(SPT + 256 * t as u32 + 4 * i as u32, *v);
        }
    }
    machine.write_mem(DATA, block);
}

fn load_subkeys(machine: &mut Machine, base: u32, ks: &[[u8; 8]; 16]) {
    for (round, chunks) in ks.iter().enumerate() {
        machine.write_mem(base + 8 * round as u32, chunks);
    }
}

/// Simulates one DES block encryption.
///
/// # Panics
///
/// Panics on an invalid key or simulator fault.
#[must_use]
pub fn simulate_des_block(key: &[u8; 8], block: &[u8; 8]) -> (KernelRun, [u8; 8]) {
    let des = Des::new(key).expect("8-byte key");
    let mut machine = Machine::new(0x10000);
    load_common(&mut machine, block);
    load_subkeys(&mut machine, KS, &des.round_subkeys());
    let stats = machine.run(&des_program(), 10_000_000).expect("kernel runs clean");
    let out: [u8; 8] = machine.read_mem(OUT, 8).try_into().expect("8 bytes");
    (KernelRun { stats, bytes: 8 }, out)
}

/// Simulates one 3DES block encryption.
///
/// # Panics
///
/// Panics on an invalid key or simulator fault.
#[must_use]
pub fn simulate_des3_block(key: &[u8; 24], block: &[u8; 8]) -> (KernelRun, [u8; 8]) {
    let mut machine = Machine::new(0x10000);
    load_common(&mut machine, block);
    // Reuse the native key schedule by building three single-DES instances.
    for i in 0..3usize {
        let sub: [u8; 8] = key[8 * i..8 * i + 8].try_into().expect("8 bytes");
        let des = Des::new(&sub).expect("valid subkey");
        load_subkeys(&mut machine, KS + 128 * i as u32, &des.round_subkeys());
    }
    let stats = machine.run(&des3_program(), 10_000_000).expect("kernel runs clean");
    let out: [u8; 8] = machine.read_mem(OUT, 8).try_into().expect("8 bytes");
    (KernelRun { stats, bytes: 8 }, out)
}

/// Simulates `blocks` DES blocks (mix/path-length reporting).
#[must_use]
pub fn simulate_des(blocks: usize) -> crate::RunStats {
    let (run, _) = simulate_des_block(&[0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1], &[7; 8]);
    let mut stats = run.stats;
    stats.scale(blocks as u64);
    stats
}

/// Simulates `blocks` 3DES blocks (mix/path-length reporting).
#[must_use]
pub fn simulate_des3(blocks: usize) -> crate::RunStats {
    let key: [u8; 24] = core::array::from_fn(|i| (i as u8).wrapping_mul(11).wrapping_add(3));
    let (run, _) = simulate_des3_block(&key, &[9; 8]);
    let mut stats = run.stats;
    stats.scale(blocks as u64);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslperf_ciphers::{BlockCipher, Des3};

    #[test]
    fn matches_native_des() {
        let cases: [([u8; 8], [u8; 8]); 3] = [
            (0x1334_5779_9BBC_DFF1u64.to_be_bytes(), 0x0123_4567_89AB_CDEFu64.to_be_bytes()),
            ([0; 8], [0; 8]),
            ([0xfe; 8], *b"DESblock"),
        ];
        for (key, block) in cases {
            let (_, simulated) = simulate_des_block(&key, &block);
            let des = Des::new(&key).unwrap();
            let mut expected = block;
            des.encrypt_block(&mut expected);
            assert_eq!(simulated, expected, "key {key:?}");
        }
    }

    #[test]
    fn classic_vector_through_simulator() {
        let (_, out) = simulate_des_block(
            &0x1334_5779_9BBC_DFF1u64.to_be_bytes(),
            &0x0123_4567_89AB_CDEFu64.to_be_bytes(),
        );
        assert_eq!(u64::from_be_bytes(out), 0x85E8_1354_0F0A_B405);
    }

    #[test]
    fn matches_native_des3() {
        let key: [u8; 24] = core::array::from_fn(|i| (i as u8).wrapping_mul(29).wrapping_add(5));
        for block in [[0u8; 8], *b"3DESdata", [0xa5; 8]] {
            let (_, simulated) = simulate_des3_block(&key, &block);
            let des3 = Des3::new(&key).unwrap();
            let mut expected = block;
            des3.encrypt_block(&mut expected);
            assert_eq!(simulated, expected);
        }
    }

    #[test]
    fn substitution_dominates_and_triples_for_des3() {
        let (des_run, _) = simulate_des_block(&[1; 8], &[2; 8]);
        let (des3_run, _) = simulate_des3_block(&[3; 24], &[2; 8]);
        let des_instr = des_run.stats.instructions as f64;
        let des3_instr = des3_run.stats.instructions as f64;
        // IP/FP are shared, so 3DES is < 3× DES but well above 2× (Table 6).
        assert!(des3_instr > 2.0 * des_instr, "{des3_instr} vs {des_instr}");
        assert!(des3_instr < 3.0 * des_instr, "{des3_instr} vs {des_instr}");
    }

    #[test]
    fn mix_is_xor_heavy() {
        let stats = simulate_des(16);
        let top: Vec<&str> = stats.mix.top(4).into_iter().map(|(m, _)| m).collect();
        assert!(top.contains(&"xorl"), "Table 12 DES column is xorl-led: {top:?}");
        assert!(stats.mix.count("movb") > 0, "subkey fetches are byte loads");
        assert!(stats.mix.count("rorl") > 0, "expansion rotates");
    }
}
