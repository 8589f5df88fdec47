-- tpchmix: the concurrent-analytics mix (a miniature of the paper's §5.3
-- full-workload experiment) as declarative text. The schema and queries
-- mirror examples/tpchmix; the runner deals the SELECTs below round-robin
-- to concurrent clients, so overlapping work between them becomes OSP
-- shared packets at run time.
--
-- Run it yourself:
--   go run ./cmd/qpipe-shell -demo -f internal/workload/sqlmix/tpchmix.sql

SET batch_size = 64;

-- Q1: revenue scan-aggregate over mid-size orders.
SELECT sum(amount) AS revenue, count(*) AS n
FROM orders
WHERE amount < 500;

-- Q1b: Q1 with the comparison commuted. The cost-based planner normalizes
-- it to Q1's exact plan signature, so a client running Q1b shares the whole
-- scan-aggregate with a concurrent Q1 instead of only the circular scan.
SELECT sum(amount) AS revenue, count(*) AS n
FROM orders
WHERE 500 > amount;

-- Q2: per-region priority report.
SELECT region, count(*) AS n, avg(amount) AS avg_amount
FROM orders
WHERE priority = 2
GROUP BY region;

-- Q3: customer-segment revenue (hash join + group-by).
SELECT segment, sum(amount) AS revenue
FROM customers c JOIN orders o ON c.cid = o.cust
WHERE segment = 1
GROUP BY segment;

-- Q3b: Q3 with the join sides swapped and the ON equality commuted —
-- cardinality-based join reordering converges both spellings on the same
-- build side, so Q3/Q3b share the join and group-by, not just the scans.
SELECT segment, sum(amount) AS revenue
FROM orders o JOIN customers c ON o.cust = c.cid
WHERE segment = 1
GROUP BY segment;

-- Q4: comma-syntax join variant with a band predicate.
SELECT region, count(*) AS n
FROM customers, orders
WHERE cid = cust AND amount BETWEEN 100 AND 800
GROUP BY region;

-- Q5: top spenders, result-limited.
SELECT oid, amount
FROM orders
WHERE amount > 900
ORDER BY amount DESC
LIMIT 10;
