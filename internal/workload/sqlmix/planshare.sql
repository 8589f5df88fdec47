-- planshare: the optimizer-convergence mix. Every group below is one query
-- written three ways — operands commuted, conjuncts shuffled, BETWEEN spelled
-- as range bounds, FROM order swapped. The pre-normalization planner lowered
-- each spelling to a distinct plan signature, so the OSP registry saw twelve
-- strangers; the cost-based planner (normalize -> estimate -> reorder) folds
-- each group to one signature, so concurrent clients share at the aggregate,
-- join and sort µEngines (the wide windows of opportunity, paper §4.3).
--
-- TestPlanShareMixSharesAtTheRoot (root package) submits the twelve in this
-- order with both tables' scanners held, with and without the optimizer.

SET batch_size = 64;

-- Group A: scan-aggregate; commuted comparison and a vacuous conjunct.
SELECT sum(amount) AS revenue, count(*) AS n
FROM orders
WHERE amount < 500;

SELECT sum(amount) AS revenue, count(*) AS n
FROM orders
WHERE 500 > amount;

SELECT sum(amount) AS revenue, count(*) AS n
FROM orders
WHERE amount < 500 AND 1 = 1;

-- Group B: join + group-by; ON commuted, FROM sides swapped, comma syntax.
SELECT segment, sum(amount) AS revenue
FROM customers c JOIN orders o ON c.cid = o.cust
WHERE segment = 1
GROUP BY segment;

SELECT segment, sum(amount) AS revenue
FROM orders o JOIN customers c ON o.cust = c.cid
WHERE 1 = segment
GROUP BY segment;

SELECT segment, sum(amount) AS revenue
FROM customers c, orders o
WHERE o.cust = c.cid AND segment = 1
GROUP BY segment;

-- Group C: comma join with a band; BETWEEN vs explicit bounds, shuffled
-- conjuncts, commuted equality.
SELECT region, count(*) AS n
FROM customers, orders
WHERE cid = cust AND amount BETWEEN 100 AND 800
GROUP BY region;

SELECT region, count(*) AS n
FROM orders, customers
WHERE amount >= 100 AND cust = cid AND amount <= 800
GROUP BY region;

SELECT region, count(*) AS n
FROM customers, orders
WHERE 100 <= amount AND amount <= 800 AND cid = cust
GROUP BY region;

-- Group D: top spenders; commuted range and a redundant NOT. All three carry
-- the LIMIT: ORDER BY … LIMIT 10 is a Top-N whose n is part of the sort's
-- signature, so an unlimited spelling would be a different query.
SELECT oid, amount
FROM orders
WHERE amount > 900
ORDER BY amount DESC
LIMIT 10;

SELECT oid, amount
FROM orders
WHERE 900 < amount
ORDER BY amount DESC
LIMIT 10;

SELECT oid, amount
FROM orders
WHERE amount > 900 AND NOT (amount <= 900)
ORDER BY amount DESC
LIMIT 10;
