//! The simulator's seeded generator: xoshiro256** seeded through
//! SplitMix64.
//!
//! It drives every virtual-time draw (delivery jitter, unfair lock grants)
//! and the seeded property tests. It is separate from the fault plans'
//! [`XorShift64`](crate::XorShift64) because each has committed results
//! pinned to its exact stream.

/// A small, fast, non-cryptographic generator: xoshiro256**.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Expand a 64-bit seed into a full state with SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `0..n` by Lemire's debiased multiply-shift;
    /// `n == 0` returns a raw draw (the full `0..=u64::MAX` range).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return self.next_u64();
        }
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            let t = n.wrapping_neg() % n;
            while (m as u64) < t {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::Xoshiro256;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_respects_bounds() {
        let mut r = Xoshiro256::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = 3 + r.below(14);
            assert!((3..17).contains(&v));
            assert!(r.below(5) <= 4);
            assert_eq!(5 + r.below(1), 5);
        }
    }

    #[test]
    fn below_hits_every_value() {
        let mut r = Xoshiro256::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    // Golden streams: every committed figure CSV depends on these exact
    // draws, so they must pass literal for literal.

    #[test]
    fn raw_streams_are_pinned() {
        let cases: [(u64, [u64; 8]); 3] = [
            (
                0,
                [
                    0x99EC_5F36_CB75_F2B4,
                    0xBF6E_1F78_4956_452A,
                    0x1A5F_849D_4933_E6E0,
                    0x6AA5_94F1_262D_2D2C,
                    0xBBA5_AD4A_1F84_2E59,
                    0xFFEF_8375_D9EB_CACA,
                    0x6C16_0DEE_D2F5_4C98,
                    0x8920_AD64_8FC3_0A3F,
                ],
            ),
            (
                1,
                [
                    0xB3F2_AF6D_0FC7_10C5,
                    0x853B_5596_4736_4CEA,
                    0x92F8_9756_082A_4514,
                    0x642E_1C7B_C266_A3A7,
                    0xB27A_48E2_9A23_3673,
                    0x24C1_2312_6FFD_A722,
                    0x1230_04EF_8DF5_10E6,
                    0x6195_4DCC_47B1_E89D,
                ],
            ),
            (
                42,
                [
                    0x1578_0B2E_0C2E_C716,
                    0x6104_D986_6D11_3A7E,
                    0xAE17_5332_39E4_99A1,
                    0xECB8_AD47_03B3_60A1,
                    0xFDE6_DC7F_E2EC_5E64,
                    0xC50D_A531_0179_5238,
                    0xB821_5485_5A65_DDB2,
                    0xD99A_2743_EBE6_0087,
                ],
            ),
        ];
        for (seed, want) in cases {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    /// 64 bounded draws per bound from seed `n ^ 0xB1`, then the next raw
    /// draw, which pins how many raw values the draws consumed (the
    /// 2^63 + 1 bound rejects about half its candidates: 125 raw draws).
    fn bounded(n: u64) -> (Vec<u64>, u64) {
        let mut rng = Xoshiro256::seed_from_u64(n ^ 0xB1);
        let draws = (0..64).map(|_| rng.below(n)).collect();
        (draws, rng.next_u64())
    }

    #[test]
    fn bounded_streams_are_pinned() {
        assert_eq!(bounded(1), (vec![0; 64], 0xADE8_6E6F_355D_7B6F));
        let (two, after) = bounded(2);
        assert_eq!(
            two,
            [
                0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0,
                1, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1,
                1, 1, 1, 1, 0, 1, 0, 1
            ]
        );
        assert_eq!(after, 0x28A3_ABC5_54CB_E9D3);
        let (three, after) = bounded(3);
        assert_eq!(
            three,
            [
                0, 2, 2, 2, 1, 1, 1, 2, 0, 0, 2, 2, 2, 2, 2, 0, 2, 1, 2, 2, 2, 2, 2, 2, 0, 2, 0, 2,
                2, 1, 0, 0, 0, 1, 0, 2, 2, 1, 2, 0, 2, 2, 1, 2, 0, 2, 0, 0, 0, 1, 0, 1, 0, 2, 2, 2,
                0, 2, 2, 1, 1, 0, 2, 2
            ]
        );
        assert_eq!(after, 0x4067_5C7F_CBDF_C428);
        let (twenty_four, after) = bounded(24);
        assert_eq!(
            twenty_four,
            [
                19, 15, 18, 10, 13, 4, 8, 2, 21, 9, 10, 8, 11, 1, 5, 8, 1, 15, 5, 7, 7, 14, 23, 16,
                21, 10, 17, 2, 17, 22, 20, 21, 13, 3, 13, 7, 21, 19, 2, 19, 18, 16, 13, 20, 19, 23,
                22, 23, 14, 7, 9, 11, 9, 1, 5, 9, 2, 13, 22, 18, 5, 7, 10, 11
            ]
        );
        assert_eq!(after, 0x7E7E_9153_0E24_D447);
        let (wide, after) = bounded((1 << 63) + 1);
        assert_eq!(
            wide,
            [
                4528203220813644323,
                7634206800344106913,
                5761560057526035095,
                5314005273980398304,
                8506665901808671408,
                6281602817182089787,
                208326246166496394,
                1596609076702773374,
                2994590596283899678,
                6654209584869999793,
                7194130384997858643,
                2797455023500499551,
                2911851635618138818,
                2139700828307367708,
                4244062264610753913,
                1072851139408467338,
                2695455713741307332,
                3143851214111496277,
                4496235259456989851,
                5468008506793290027,
                7551912801545865167,
                5895102779068984203,
                3756392731048820547,
                7997080566740855926,
                6609608620263871226,
                7528441563940777980,
                6370492213228632993,
                5359331747290981287,
                3446624277212810359,
                6227960543190251501,
                7235288998937579244,
                6319981854355265894,
                8680609376430171450,
                1666023702929454488,
                3348154189945037572,
                2548779557891034,
                6517473825740158744,
                5352116525154570936,
                4243668633309570736,
                4082848919637906979,
                614038908431534472,
                3463418315470766868,
                3409389593828629428,
                4794837356152069465,
                5437103750388975815,
                2318774993239800600,
                2880107520642456252,
                4083537123742769407,
                1201432521659365474,
                7342209243087404820,
                3765989923499122245,
                3447046831381747577,
                3028283939057514072,
                1391263061370459884,
                9176866538090733642,
                213831216232487608,
                477266839203275721,
                8634936894655701161,
                784923938885594064,
                2428355018580038512,
                5869168874956080975,
                2286024693418463994,
                8377272953906418540,
                8412234221436956347,
            ]
        );
        assert_eq!(after, 0x1B1F_AB8B_E56B_0DA4);
    }

    #[test]
    fn full_width_draw_is_raw() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        assert_eq!(rng.below(0), 0x00A9_4EEC_F619_A060);
        assert_eq!(rng.next_u64(), 0x4061_9B85_D152_FBF9);
    }
}
