"""Tests for the evaluation-dataset generators (Table 1 substitutes)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets.synthetic import (
    SYNTHETIC_MAS_ONE,
    SYNTHETIC_MAS_TWO,
    SyntheticProfile,
    generate_fd_table,
    generate_synthetic,
)
from repro.datasets.tpch import (
    CUSTOMER_MAS_ONE,
    CUSTOMER_MAS_TWO,
    CUSTOMER_SCHEMA,
    generate_customer,
    generate_orders,
)
from repro.exceptions import DatasetError
from repro.fd.fd import FunctionalDependency
from repro.fd.mas import find_maximal_attribute_sets
from repro.fd.verify import fd_holds


class TestOrdersGenerator:
    def test_shape(self):
        orders = generate_orders(200, seed=1)
        assert orders.num_rows == 200
        assert orders.num_attributes == 9

    def test_deterministic_per_seed(self):
        assert list(generate_orders(50, seed=3).rows()) == list(generate_orders(50, seed=3).rows())
        assert list(generate_orders(50, seed=3).rows()) != list(generate_orders(50, seed=4).rows())

    def test_order_keys_unique(self):
        orders = generate_orders(300, seed=0)
        assert len(orders.distinct_values("OrderKey")) == 300
        assert len(orders.distinct_values("Comment")) == 300

    def test_low_cardinality_attributes(self):
        orders = generate_orders(500, seed=0)
        domains = orders.domain_sizes()
        assert domains["OrderStatus"] <= 3
        assert domains["OrderPriority"] <= 5
        assert domains["ShipPriority"] <= 6
        assert domains["Clerk"] < 500

    def test_has_at_least_one_mas_with_low_cardinality_attributes(self):
        orders = generate_orders(400, seed=0)
        masses = find_maximal_attribute_sets(orders)
        assert masses
        union = set().union(*(mas.as_set for mas in masses))
        assert "OrderStatus" in union

    def test_invalid_size_rejected(self):
        with pytest.raises(DatasetError):
            generate_orders(0)


class TestCustomerGenerator:
    def test_shape(self):
        customer = generate_customer(150, seed=2)
        assert customer.num_rows == 150
        assert customer.num_attributes == 21
        assert customer.attributes == tuple(CUSTOMER_SCHEMA)

    def test_deterministic_per_seed(self):
        assert list(generate_customer(60, seed=1).rows()) == list(
            generate_customer(60, seed=1).rows()
        )

    def test_planted_mas_structure(self):
        customer = generate_customer(400, seed=0)
        masses = {mas.as_set for mas in find_maximal_attribute_sets(customer)}
        assert frozenset(CUSTOMER_MAS_ONE) in masses
        assert frozenset(CUSTOMER_MAS_TWO) in masses
        # No MAS may span beyond the two planted ones.
        for mas in masses:
            assert mas <= frozenset(CUSTOMER_MAS_ONE) or mas <= frozenset(CUSTOMER_MAS_TWO)

    def test_high_cardinality_identifiers_are_unique(self):
        customer = generate_customer(250, seed=0)
        for attribute in ("C_Id", "C_Phone", "C_Data", "C_Balance"):
            assert len(customer.distinct_values(attribute)) == 250

    def test_planted_mas_overlap(self):
        assert set(CUSTOMER_MAS_ONE) & set(CUSTOMER_MAS_TWO)

    def test_invalid_size_rejected(self):
        with pytest.raises(DatasetError):
            generate_customer(0)


class TestSyntheticGenerator:
    def test_shape(self):
        table = generate_synthetic(500, seed=1)
        assert table.num_rows == 500
        assert table.num_attributes == 7

    def test_deterministic_per_seed(self):
        assert list(generate_synthetic(100, seed=7).rows()) == list(
            generate_synthetic(100, seed=7).rows()
        )

    def test_planted_mas_structure(self):
        table = generate_synthetic(600, seed=0)
        masses = {mas.as_set for mas in find_maximal_attribute_sets(table)}
        assert frozenset(SYNTHETIC_MAS_ONE) in masses
        assert frozenset(SYNTHETIC_MAS_TWO) in masses
        for mas in masses:
            assert mas <= frozenset(SYNTHETIC_MAS_ONE) or mas <= frozenset(SYNTHETIC_MAS_TWO)

    def test_planted_fds_hold(self):
        table = generate_synthetic(600, seed=0)
        assert fd_holds(table, FunctionalDependency(["A1"], "A2"))
        assert fd_holds(table, FunctionalDependency(["A4"], "A5"))

    def test_reverse_fds_broken(self):
        table = generate_synthetic(600, seed=0)
        assert not fd_holds(table, FunctionalDependency(["A2"], "A1"))
        assert not fd_holds(table, FunctionalDependency(["A5"], "A4"))

    def test_many_small_equivalence_classes(self):
        table = generate_synthetic(600, seed=0)
        frequencies = table.value_frequencies(SYNTHETIC_MAS_ONE)
        assert max(frequencies.values()) <= 4
        assert len(frequencies) > 300

    def test_profile_validation(self):
        with pytest.raises(DatasetError):
            generate_synthetic(100, profile=SyntheticProfile(duplicate_fraction=2.0))
        with pytest.raises(DatasetError):
            generate_synthetic(100, profile=SyntheticProfile(min_class_size=1))
        with pytest.raises(DatasetError):
            generate_synthetic(2)


class TestFdTableGenerator:
    def test_planted_chain_holds(self):
        table = generate_fd_table(200, num_zipcodes=8, seed=0)
        assert fd_holds(table, FunctionalDependency(["Zipcode"], "City"))
        assert fd_holds(table, FunctionalDependency(["City"], "State"))

    def test_extra_columns(self):
        table = generate_fd_table(50, num_extra_columns=3)
        assert table.num_attributes == 4 + 3

    def test_same_seed_same_table_in_every_process(self):
        # String hashing is salted per process; the table must not be.
        script = (
            "from repro.api.delta import relation_digest\n"
            "from repro.datasets import generate_fd_table\n"
            "print(relation_digest(generate_fd_table(300, num_zipcodes=40, seed=3)))\n"
        )
        source = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source)
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(completed.stdout.strip())
        assert len(digests) == 1

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            generate_fd_table(0)
        with pytest.raises(DatasetError):
            generate_fd_table(10, num_zipcodes=0)
