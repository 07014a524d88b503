import numpy as np
import pytest

from oracles import is_hyperbolic, random_word
from charvar.words import (FreeWord, GroupRingElement, Signature, commutator,
                           dual_generators, fox_derivative, fundamental_class_chain,
                           parse_word, prefix_products, relator,
                           verify_presentation_identities)


SIG2 = Signature(2)
SIG111 = Signature(1, (6, None))
SIG04 = Signature(0, (None,) * 4)


def w(text, sig=SIG111):
    return parse_word(text, sig)


class TestParse:
    def test_free_cancellation(self):
        assert parse_word("a1 a1^-1", SIG2).is_identity()

    def test_already_reduced(self):
        assert parse_word("a1 b1", SIG2).letters == (("a1", 1), ("b1", 1))

    def test_exponent_expansion(self):
        assert parse_word("c2^3", SIG04).letters == (("c2", 1),) * 3

    def test_negative_exponent_and_star(self):
        assert parse_word("a1^-2 * b1", SIG2).letters == (("a1", -1), ("a1", -1), ("b1", 1))

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            parse_word("c5", SIG111)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_word("a1^x", SIG2)


class TestFreeWords:
    def test_reduction_idempotent_and_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            word = random_word(SIG111, int(rng.integers(0, 12)), rng)
            assert FreeWord(word.letters) == word  # already reduced
            assert (word * word.inverse()).is_identity()

    def test_product_cancels_at_the_junction(self):
        # both factors are reduced, so only the letters where they meet
        # cancel: partly, wholly (the identity), or not at all; each product
        # is the free reduction of the concatenation
        rng = np.random.default_rng(11)
        u, v = w("a1 b1 c1 a1"), w("a1^-1 c1^-1 b1")
        assert (u * v).letters == (("a1", 1), ("b1", 1), ("b1", 1))
        assert (u * u.inverse()).is_identity() and (u.inverse() * u).is_identity()
        assert (u * w("c2")).letters == u.letters + (("c2", 1),)
        assert (FreeWord() * u) == u == (u * FreeWord())
        for _ in range(1000):
            x, y = (random_word(SIG111, int(rng.integers(0, 12)), rng) for _ in "xy")
            tail = y.letters[:int(rng.integers(0, len(y) + 1))]
            for z in (y, FreeWord(x.inverse().letters[:len(tail)] + tail)):
                assert x * z == FreeWord(x.letters + z.letters)

    def test_pow(self):
        a = SIG2.gen("a1")
        assert a ** 3 == parse_word("a1^3", SIG2)
        assert a ** -2 == parse_word("a1^-2", SIG2)
        assert (a ** 0).is_identity()


class TestGroupRing:
    def test_ring_axioms_random(self):
        rng = np.random.default_rng(1)

        def relt():
            out = GroupRingElement.zero()
            for _ in range(int(rng.integers(1, 4))):
                out = out + GroupRingElement.from_word(
                    random_word(SIG111, int(rng.integers(0, 5)), rng),
                    int(rng.integers(-3, 4)))
            return out

        for _ in range(50):
            x, y, z = relt(), relt(), relt()
            assert (x + y) * z == x * z + y * z
            assert z * (x + y) == z * x + z * y
            assert (x * y) * z == x * (y * z)

    def test_anti_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            word = random_word(SIG111, int(rng.integers(0, 6)), rng)
            x = GroupRingElement.from_word(word, 3)
            assert x.anti_involution() == GroupRingElement.from_word(word.inverse(), 3)
        for _ in range(30):
            x = GroupRingElement.from_word(random_word(SIG111, 4, rng), 2) \
                + GroupRingElement.from_word(random_word(SIG111, 3, rng), -1)
            assert x.anti_involution().anti_involution() == x
        # anti-multiplicative on single words
        u = GroupRingElement.from_word(random_word(SIG111, 4, rng))
        v = GroupRingElement.from_word(random_word(SIG111, 4, rng))
        assert (u * v).anti_involution() == v.anti_involution() * u.anti_involution()


class TestFox:
    def test_base_rules(self):
        a = SIG2.gen("a1")
        assert fox_derivative(a, "a1") == GroupRingElement.one()
        assert fox_derivative(a, "b1") == GroupRingElement.zero()
        assert fox_derivative(a.inverse(), "a1") == \
            GroupRingElement.from_word(a.inverse(), -1)

    def test_product_rule_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = random_word(SIG111, int(rng.integers(0, 7)), rng)
            v = random_word(SIG111, int(rng.integers(0, 7)), rng)
            for gen in ("a1", "b1", "c1"):
                lhs = fox_derivative(u * v, gen)
                rhs = fox_derivative(u, gen) + \
                    GroupRingElement.from_word(u) * fox_derivative(v, gen)
                assert lhs == rhs

    def test_fundamental_identity(self):
        # sum_x dw/dx (x - 1) = w - 1
        rng = np.random.default_rng(4)
        one = GroupRingElement.one()
        for _ in range(60):
            word = random_word(SIG111, int(rng.integers(0, 9)), rng)
            total = GroupRingElement.zero()
            for gen in SIG111.generators:
                x = GroupRingElement.from_word(SIG111.gen(gen))
                total = total + fox_derivative(word, gen) * (x - one)
            assert total == GroupRingElement.from_word(word) - one

    def test_genus1_relator_derivative(self):
        sig = Signature(1)
        R = relator(sig)
        got = fox_derivative(R, "a1")
        # 1 - a1 b1 a1^-1, which is R_0 - R_1 b1
        Rk = prefix_products(sig)
        want = GroupRingElement.one() - GroupRingElement.from_word(parse_word("a1 b1 a1^-1", sig))
        assert got == want
        assert got == GroupRingElement.from_word(Rk[0]) - \
            GroupRingElement.from_word(Rk[1] * sig.gen("b1"))

    def test_orbifold_c_derivative(self):
        R = relator(SIG111)
        Rk = prefix_products(SIG111)
        for i in (1, 2):
            assert fox_derivative(R, f"c{i}") == GroupRingElement.from_word(Rk[1 + i - 1])


class TestPrefixAndDuals:
    def test_prefix_products(self):
        Rk = prefix_products(SIG2)
        assert Rk[0].is_identity()
        assert Rk[2] == parse_word("a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1", SIG2)
        Rk = prefix_products(SIG111)
        assert Rk[3] == parse_word("a1 b1 a1^-1 b1^-1 c1 c2", SIG111)

    def test_dual_generators_examples(self):
        sig = Signature(1, (None,))  # any g=1 signature; alphas only need handles
        duals = dual_generators(sig)
        assert duals.alphas[0] == parse_word("a1 b1^-1 a1^-1", sig)
        assert duals.betas[0] == parse_word("a1 b1 a1^-1 b1^-1 a1^-1", sig)
        duals04 = dual_generators(SIG04)
        assert duals04.gammas[0] == parse_word("c1^-1", SIG04)

    def test_chain_genus1(self):
        sig = Signature(1)
        terms = dict((g, x) for x, g in fundamental_class_chain(sig))
        assert terms["a1"] == GroupRingElement.one() - \
            GroupRingElement.from_word(parse_word("a1 b1 a1^-1", sig))
        assert terms["b1"] == GroupRingElement.from_word(parse_word("a1", sig)) - \
            GroupRingElement.from_word(relator(sig))

    def test_chain_orbifold_schedule(self):
        chain = fundamental_class_chain(SIG04)
        Rk = prefix_products(SIG04)
        assert [g for _, g in chain] == ["c1", "c2", "c3", "c4"]
        for (x, _), i in zip(chain, range(1, 5)):
            assert x == GroupRingElement.from_word(Rk[i - 1])


class TestPresentationIdentities:
    @pytest.mark.parametrize("sig", [
        Signature(1), Signature(2), Signature(3),
        Signature(0, (None,) * 3), Signature(0, (2, 3, None, None)), Signature(1, (6, None)),
        Signature(2, (2, None)), Signature(3, (3, 4, None, None)),
    ])
    def test_all_identities_pass(self, sig):
        rep = verify_presentation_identities(sig)
        assert rep.all_pass, [c for c in rep.checks if not c.status]
        if sig.g > 0:
            assert rep.alpha_convention == "section_3.1.1"
            assert rep.beta_sign == -1

    def test_commutator_identity_direct(self):
        duals = dual_generators(SIG2)
        Rk = prefix_products(SIG2)
        for k in (1, 2):
            assert commutator(duals.alphas[k - 1], duals.betas[k - 1]) == \
                Rk[k - 1] * Rk[k].inverse()

    def test_gamma_telescoping(self):
        # calR_g gamma_1 ... gamma_{m+n} = R^-1 exactly in the free group
        for sig in (SIG04, SIG111, Signature(2, (5, None, None))):
            duals = dual_generators(sig)
            total = prefix_products(sig)[sig.g].inverse()
            for gamma in duals.gammas:
                total = total * gamma
            assert total == relator(sig).inverse()


class TestSignature:
    def test_dimension(self):
        assert Signature(2).dimension == 3
        assert SIG04.dimension == 1
        assert SIG111.dimension == 2

    def test_hyperbolicity(self):
        assert not is_hyperbolic(Signature(1))        # torus: algebra only
        assert is_hyperbolic(Signature(2))
        assert not is_hyperbolic(Signature(0, (None, None)))
        assert is_hyperbolic(Signature(0, (2, 3, None)))  # 2g-2+n+sum(1-1/e) = 1/6 > 0
        assert not is_hyperbolic(Signature(0, (2, 2, None)))

    def test_marked_orders_interleave(self):
        # the orders are the signature: elliptic orders and cusps are read
        # off them in generator order
        sig = Signature(0, (None, 3, None, 2))
        assert sig.orders == (None, 3, None, 2)
        assert (sig.elliptic_orders, sig.cusps, sig.num_marked) == ((3, 2), 2, 4)
        for bad in ((None, 1), (None, 2.0), (True,)):
            with pytest.raises(ValueError, match="elliptic order"):
                Signature(0, bad)
        with pytest.raises(ValueError, match="genus"):
            Signature(-1)

    def test_generator_order(self):
        assert SIG111.generators == ("a1", "b1", "c1", "c2")

    def test_equal_by_fields_and_hashable(self):
        # a signature is a value: equal to one built from the same fields in
        # any sequence type, with the same hash, and unequal to a tuple of
        # its fields or to one that differs in any field
        sig = Signature(1, (3, None, 2))
        same = Signature(1, [3, None, 2])
        assert sig == same and hash(sig) == hash(same) and {sig: 1}[same] == 1
        assert sig != (1, (3, None, 2))
        for other in (Signature(2, (3, None, 2)), Signature(1, (3, None, 4)),
                      Signature(1, (3, None, 2, None)), Signature(1, (2, 3, None))):
            assert sig != other
        assert len({sig, same, Signature(1, (2, 3, None))}) == 2

    @pytest.mark.parametrize("sig, names", [
        (SIG2, ()), (SIG111, ("c1", "c2")), (Signature(0, (2, 3, None)), ("c1", "c2", "c3")),
        (Signature(0, (None, None, 3, None)), ("c1", "c2", "c3", "c4")),
        (Signature(2, (None, 4, None)), ("c1", "c2", "c3"))])
    def test_marked_generators_follow_the_handles(self, sig, names):
        # the one definition of the c_i names: what every marked-generator
        # site reads, for closed, orbifold and interleaved signatures
        assert sig.marked_generators == names == sig.generators[2 * sig.g:]
        assert sig.marked_generators is sig.marked_generators
