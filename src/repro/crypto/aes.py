"""AES-128 from scratch (FIPS-197), with CTR mode.

The paper's prototype encodes WCL payloads "using symmetric encryption with
a random key k (we use AES in our prototype)".  This is a straightforward
byte-oriented implementation — correct (validated against the FIPS-197 and
NIST SP 800-38A vectors in the test suite) rather than fast.  Large-scale
simulations that only need *costs* can use the SHA-256 stream cipher in
:mod:`repro.crypto.stream` instead; the cost model charges AES time either
way.

CTR mode only needs the forward cipher, so that is the only direction
implemented.
"""

from __future__ import annotations

__all__ = ["AES128", "ctr_transform"]

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a


class AES128:
    """AES with a 128-bit key: 10 rounds, 16-byte blocks."""

    ROUNDS = 10
    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> list[list[int]]:
        """Key schedule: 11 round keys of 16 bytes each, as flat int lists."""
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 4 * (AES128.ROUNDS + 1)):
            word = list(words[i - 1])
            if i % 4 == 0:
                word = word[1:] + word[:1]  # RotWord
                word = [_SBOX[b] for b in word]  # SubWord
                word[0] ^= _RCON[i // 4 - 1]
            words.append([w ^ p for w, p in zip(word, words[i - 4])])
        return [
            sum(words[4 * r : 4 * r + 4], [])
            for r in range(AES128.ROUNDS + 1)
        ]

    # -- round transformations (state = flat list of 16 bytes, column-major)
    @staticmethod
    def _sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> list[int]:
        # state[col*4 + row]; row r rotates left by r.
        return [
            state[(4 * ((col + row) % 4)) + row]
            for col in range(4)
            for row in range(4)
        ]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            state[c] = _xtime(a0) ^ _xtime(a1) ^ a1 ^ a2 ^ a3
            state[c + 1] = a0 ^ _xtime(a1) ^ _xtime(a2) ^ a2 ^ a3
            state[c + 2] = a0 ^ a1 ^ _xtime(a2) ^ _xtime(a3) ^ a3
            state[c + 3] = _xtime(a0) ^ a0 ^ a1 ^ a2 ^ _xtime(a3)

    def _add_round_key(self, state: list[int], round_index: int) -> None:
        round_key = self._round_keys[round_index]
        for i in range(16):
            state[i] ^= round_key[i]

    # -- block operations
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, 0)
        for round_index in range(1, self.ROUNDS):
            self._sub_bytes(state)
            state = self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, round_index)
        self._sub_bytes(state)
        state = self._shift_rows(state)
        self._add_round_key(state, self.ROUNDS)
        return bytes(state)


def ctr_transform(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-CTR: encryption and decryption are the same operation.

    ``nonce`` is 8 bytes; the counter occupies the low 8 bytes of each block.
    """
    if len(nonce) != 8:
        raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
    length = len(data)
    encrypt_block = AES128(key).encrypt_block
    keystream = b"".join(
        encrypt_block(nonce + block_index.to_bytes(8, "big"))
        for block_index in range((length + 15) // 16)
    )
    value = int.from_bytes(data, "big") ^ int.from_bytes(keystream[:length], "big")
    return value.to_bytes(length, "big")
